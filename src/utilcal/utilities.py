"""Utility-function families, their payoff vectors, and class samplers.

A utility ``u`` maps (prediction vector, outcome class) to a payoff in
[-1, 1].  Each family is parameterized by a :class:`UtilitySpec`; evaluating
a spec at a prediction ``p`` yields the per-class payoff vector
``uvec[j] = u(p, e_j)`` and the predicted utility ``v = <p, uvec>``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .dataset import derive_rng, read_json  # noqa: F401 (derive_rng re-exported)
from .errors import DomainError, ParseError

DCG_GAMMA_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


# --- parameter rules ---------------------------------------------------------


def as_int(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integral number is a TypeError
    (JSON ``3.9`` or ``true`` must not pass as 3 or 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class IntRange:
    """An integer in [lo, C + hi_from_C]."""

    lo: int
    hi_from_C: int
    parse = staticmethod(int)
    format = staticmethod(str)

    def coerce(self, name: str, value) -> int:
        value = as_int(name, value)
        if value < self.lo:
            raise DomainError(f"{name} must be >= {self.lo}, got {value}")
        return value

    def check_dim(self, name: str, value: int, C: int) -> None:
        if not self.lo <= value <= C + self.hi_from_C:
            raise DomainError(f"{name}={value} out of range for C={C}")


@dataclass(frozen=True)
class PositiveReal:
    """A finite real > 0."""

    parse = staticmethod(float)
    format = staticmethod("{:g}".format)

    def coerce(self, name: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be a finite real > 0, got {value!r}")
        return float(value)

    def check_dim(self, name: str, value: float, C: int) -> None:
        pass


@dataclass(frozen=True)
class BoundedArray:
    """A non-empty float array of rank ``ndim`` with entries in [lo, hi] and
    first axis C; ``unit_diagonal`` also asks for a square matrix with ones
    on its diagonal."""

    ndim: int
    lo: float
    hi: float
    unit_diagonal: bool = False

    def coerce(self, name: str, value) -> np.ndarray:
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        if arr.ndim != self.ndim or arr.size == 0:
            raise DomainError(f"{name} must be a non-empty {self.ndim}-D array")
        # written so that NaN fails too
        if not np.all((arr >= self.lo) & (arr <= self.hi)):
            raise DomainError(f"{name} entries must lie in [{self.lo}, {self.hi}]")
        if self.unit_diagonal and (
            arr.shape[0] != arr.shape[1] or np.any(np.diag(arr) != 1.0)
        ):
            raise DomainError(f"{name} must be a square matrix with unit diagonal")
        arr.setflags(write=False)
        return arr

    def check_dim(self, name: str, value: np.ndarray, C: int) -> None:
        if value.shape[0] != C:
            raise DomainError(f"{name} has {value.shape[0]} rows, data has C={C}")


# Each family's parameters and the rule each follows; every other parameter
# field of a spec stays None.  Scalar rules also parse and format text.
FAMILY_PARAMS = {
    "top_class": {},
    "class_wise": {"c": IntRange(0, -1)},
    "top_k": {"k": IntRange(1, 0)},
    "rank": {"theta": BoundedArray(1, -1.0, 1.0)},
    "linear": {"a": BoundedArray(1, -1.0, 1.0)},
    "dcg": {"gamma": PositiveReal()},
    "decision": {"loss": BoundedArray(2, -1.0, 1.0)},
    "gain_matrix": {"gain": BoundedArray(2, 0.0, 1.0, unit_diagonal=True)},
    "similarity": {"sim": BoundedArray(2, -1.0, 1.0, unit_diagonal=True)},
}
FAMILIES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class UtilitySpec:
    """Tagged parameterization of one utility function.

    Exactly the parameters of ``family`` are set: construction raises
    :class:`DomainError` for a missing one or one of another family.  Use
    the classmethod constructors rather than filling fields by hand.
    """

    family: str
    c: int | None = None
    k: int | None = None
    theta: np.ndarray | None = None
    a: np.ndarray | None = None
    gamma: float | None = None
    loss: np.ndarray | None = None
    gain: np.ndarray | None = None
    sim: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILY_PARAMS:
            raise DomainError(f"unknown utility family {self.family!r}")
        rules = FAMILY_PARAMS[self.family]
        for f in fields(self)[1:]:  # every field after family is a parameter
            value = getattr(self, f.name)
            if f.name not in rules:
                if value is not None:
                    raise DomainError(f"{self.family} takes no parameter {f.name}")
            elif value is None:
                raise DomainError(f"{self.family} needs parameter {f.name}")
            else:
                object.__setattr__(self, f.name, rules[f.name].coerce(f.name, value))

    # -- constructors ------------------------------------------------------

    @classmethod
    def top_class(cls) -> "UtilitySpec":
        return cls("top_class")

    @classmethod
    def class_wise(cls, c: int) -> "UtilitySpec":
        return cls("class_wise", c=c)

    @classmethod
    def top_k(cls, k: int) -> "UtilitySpec":
        return cls("top_k", k=k)

    @classmethod
    def rank(cls, theta) -> "UtilitySpec":
        return cls("rank", theta=theta)

    @classmethod
    def linear(cls, a) -> "UtilitySpec":
        return cls("linear", a=a)

    @classmethod
    def dcg(cls, gamma: float) -> "UtilitySpec":
        return cls("dcg", gamma=gamma)

    @classmethod
    def decision(cls, loss) -> "UtilitySpec":
        return cls("decision", loss=loss)

    @classmethod
    def gain_matrix(cls, gain) -> "UtilitySpec":
        return cls("gain_matrix", gain=gain)

    @classmethod
    def similarity(cls, sim) -> "UtilitySpec":
        return cls("similarity", sim=sim)

    # -- misc ---------------------------------------------------------------

    def label(self) -> str:
        """Short stable identifier, used as a report key: the family, plus
        its scalar parameter if it has one."""
        for name, rule in FAMILY_PARAMS[self.family].items():
            if hasattr(rule, "format"):
                return f"{self.family}_{rule.format(getattr(self, name))}"
        return self.family

    def check_dim(self, C: int) -> None:
        for name, rule in FAMILY_PARAMS[self.family].items():
            rule.check_dim(name, getattr(self, name), C)

    def key(self) -> tuple:
        """Hashable identity of the utility: specs with equal keys have the
        same family and bit-identical parameters, so they evaluate to
        bit-identical results."""
        parts: list = [self.family]
        for name in FAMILY_PARAMS[self.family]:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = (value.shape, value.tobytes())
            parts.append(value)
        return tuple(parts)

    def to_json_dict(self) -> dict:
        params: dict = {}
        for name in FAMILY_PARAMS[self.family]:
            value = getattr(self, name)
            params[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return {"family": self.family, "params": params}

    @classmethod
    def from_json_dict(cls, d: dict) -> "UtilitySpec":
        try:
            fam = d["family"]
            params = d.get("params", {})
        except (TypeError, KeyError) as exc:
            raise ParseError(f"utility JSON missing key: {exc}") from exc
        if fam not in FAMILIES:
            raise ParseError(f"unknown utility family {fam!r}")
        if not isinstance(params, dict):
            raise ParseError(f"utility params must be an object, got {params!r}")
        unknown = sorted(set(params) - set(FAMILY_PARAMS[fam]))
        if unknown:
            raise ParseError(
                f"unknown parameter(s) {', '.join(map(repr, unknown))} for utility "
                f"family {fam!r} (expected {list(FAMILY_PARAMS[fam])})"
            )
        try:
            return cls(fam, **params)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad {fam} parameters: {exc}") from exc


@dataclass(frozen=True)
class UtilityEvaluation:
    """Payoff vector uvec[j] = u(p, e_j) and predicted utility v = <p, uvec>."""

    uvec: np.ndarray
    v: float


def rank_of(p: np.ndarray) -> np.ndarray:
    """Bijective 1-based ranks: sort classes by (-p_j, j); ties go to the
    smaller class index."""
    p = np.asarray(p, dtype=np.float64)
    order = np.argsort(-p, kind="stable")
    ranks = np.empty(len(p), dtype=np.int64)
    ranks[order] = np.arange(1, len(p) + 1)
    return ranks


def dcg_discounts(C: int, gamma: float) -> np.ndarray:
    """theta_r = (log2(1+r))^(-gamma) for ranks 1..C; theta_1 = 1."""
    r = np.arange(1, C + 1, dtype=np.float64)
    return np.log2(1.0 + r) ** (-gamma)


def eval_utility(spec: UtilitySpec, p: np.ndarray) -> UtilityEvaluation:
    """Evaluate one utility at one prediction vector.

    This is the scalar reference path; :mod:`utilcal.estimators` carries
    vectorized equivalents for whole matrices, and the test suite checks the
    two against each other.
    """
    p = np.asarray(p, dtype=np.float64)
    C = p.shape[0]
    spec.check_dim(C)
    fam = spec.family

    if fam == "top_class":
        uvec = np.zeros(C)
        uvec[int(np.argmax(p))] = 1.0
    elif fam == "class_wise":
        uvec = np.zeros(C)
        uvec[spec.c] = 1.0
    elif fam == "top_k":
        uvec = (rank_of(p) <= spec.k).astype(np.float64)
    elif fam == "rank":
        uvec = spec.theta[rank_of(p) - 1]
    elif fam == "dcg":
        uvec = dcg_discounts(C, spec.gamma)[rank_of(p) - 1]
    elif fam == "decision":
        expected_loss = p @ spec.loss
        delta = int(np.argmin(expected_loss))
        uvec = -spec.loss[:, delta]
    elif fam == "gain_matrix":
        j_star = int(np.argmax(p @ spec.gain))
        uvec = spec.gain[:, j_star]
    elif fam == "similarity":
        uvec = p @ spec.sim
    else:  # linear
        uvec = spec.a
    return UtilityEvaluation(uvec=np.array(uvec, dtype=np.float64), v=float(p @ uvec))


# --- samplers --------------------------------------------------------------


def sample_linear(C: int, rng: np.random.Generator) -> UtilitySpec:
    """Payoff vector uniform on the boundary of the sup-norm unit cube:
    pick one of the 2C faces, pin that coordinate to +-1, fill the rest
    i.i.d. uniform on [-1, 1]."""
    if C < 2:
        raise DomainError("C must be >= 2")
    face = int(rng.integers(2 * C))
    a = rng.uniform(-1.0, 1.0, size=C)
    a[face // 2] = 1.0 if face % 2 == 0 else -1.0
    return UtilitySpec.linear(a)


def sample_rank(C: int, rng: np.random.Generator) -> UtilitySpec:
    """Rank valuations: a cube-boundary draw sorted non-increasing, so better
    ranks never pay less."""
    draw = sample_linear(C, rng)
    return UtilitySpec.rank(np.sort(draw.a)[::-1])


def sample_decision(C: int, K: int, rng: np.random.Generator) -> UtilitySpec:
    if K < 2:
        raise DomainError("K must be >= 2")
    return UtilitySpec.decision(rng.uniform(-1.0, 1.0, size=(C, K)))


def gain_matrix_aligned(C: int, rng: np.random.Generator) -> UtilitySpec:
    """Unit diagonal, off-diagonals i.i.d. uniform on (0, 0.1): users with a
    low tolerance for any error."""
    R = rng.uniform(0.0, 0.1, size=(C, C))
    np.fill_diagonal(R, 1.0)
    return UtilitySpec.gain_matrix(R)


def gain_matrix_misaligned(
    C: int, partition: list[list[int]], rng: np.random.Generator
) -> UtilitySpec:
    """One specialist drawn from a mixture over disjoint class blocks.

    The chosen specialist's block gets off-diagonal gain 0.2; everything else
    off-diagonal is 0; the diagonal is 1.
    """
    seen: set[int] = set()
    for block in partition:
        for j in block:
            if not 0 <= j < C:
                raise DomainError(f"class {j} out of range for C={C}")
            if j in seen:
                raise DomainError(f"class {j} appears in two partition blocks")
            seen.add(j)
    if not partition:
        raise DomainError("partition must contain at least one block")
    m = int(rng.integers(len(partition)))
    R = np.zeros((C, C))
    R[:, list(partition[m])] = 0.2
    np.fill_diagonal(R, 1.0)
    return UtilitySpec.gain_matrix(R)


# The sampled utility classes: the families ecdf sweeps and the CLI's
# --family accept, and the order patching's pool augmentation takes them in.
SAMPLERS = {"linear": sample_linear, "rank": sample_rank}


def sample_utility(family: str, C: int, rng: np.random.Generator) -> UtilitySpec:
    """One utility drawn by ``family``'s entry in :data:`SAMPLERS`."""
    if family not in SAMPLERS:
        raise DomainError(f"family must be one of {tuple(SAMPLERS)}, got {family!r}")
    return SAMPLERS[family](C, rng)


def comb_pool(C: int) -> list[UtilitySpec]:
    """The 2C class-wise and top-K utilities, class-wise first, both ascending."""
    if C < 2:
        raise DomainError("C must be >= 2")
    return [UtilitySpec.class_wise(c) for c in range(C)] + [
        UtilitySpec.top_k(k) for k in range(1, C + 1)
    ]


def dcg_pool() -> list[UtilitySpec]:
    """Log-discount utilities on the default gamma grid."""
    return [UtilitySpec.dcg(g) for g in DCG_GAMMA_GRID]


def load_utility_json(path: str) -> UtilitySpec:
    return UtilitySpec.from_json_dict(read_json(path))
