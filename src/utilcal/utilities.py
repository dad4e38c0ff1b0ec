"""Utility-function families, their payoff vectors, and class samplers.

A utility ``u`` maps (prediction vector, outcome class) to a payoff in
[-1, 1].  Each family is parameterized by a :class:`UtilitySpec`; evaluating
a spec at a prediction ``p`` yields the per-class payoff vector
``uvec[j] = u(p, e_j)`` and the predicted utility ``v = <p, uvec>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

# The parameter fields each family sets; every other field stays None.
FAMILY_PARAMS = {
    "top_class": (),
    "class_wise": ("c",),
    "top_k": ("k",),
    "rank": ("theta",),
    "linear": ("a",),
    "dcg": ("gamma",),
    "decision": ("loss",),
    "gain_matrix": ("gain",),
    "similarity": ("sim",),
}
FAMILIES = tuple(FAMILY_PARAMS)

DCG_GAMMA_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for (master seed, key...); scheduling-safe."""
    return np.random.default_rng((int(seed),) + tuple(int(k) for k in key))


def _ro(arr, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    out.setflags(write=False)
    return out


def _check_range(name: str, arr: np.ndarray, lo: float, hi: float) -> None:
    if np.any(arr < lo) or np.any(arr > hi):
        raise DomainError(f"{name} entries must lie in [{lo}, {hi}]")


@dataclass(frozen=True)
class UtilitySpec:
    """Tagged parameterization of one utility function.

    Exactly the parameters of ``family`` are set; use the classmethod
    constructors rather than filling fields by hand.
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
        fam = self.family
        if fam not in FAMILIES:
            raise DomainError(f"unknown utility family {fam!r}")
        if fam == "class_wise":
            if self.c is None or self.c < 0:
                raise DomainError("class_wise needs a class index c >= 0")
        elif fam == "top_k":
            if self.k is None or self.k < 1:
                raise DomainError("top_k needs K >= 1")
        elif fam == "rank":
            theta = _ro(self.theta)
            _check_range("theta", theta, -1.0, 1.0)
            object.__setattr__(self, "theta", theta)
        elif fam == "linear":
            a = _ro(self.a)
            _check_range("a", a, -1.0, 1.0)
            object.__setattr__(self, "a", a)
        elif fam == "dcg":
            if self.gamma is None or self.gamma <= 0:
                raise DomainError("dcg needs gamma > 0")
        elif fam == "decision":
            loss = _ro(self.loss)
            if loss.ndim != 2 or loss.shape[1] < 1:
                raise DomainError("decision loss must be a C x K matrix")
            _check_range("loss", loss, -1.0, 1.0)
            object.__setattr__(self, "loss", loss)
        elif fam == "gain_matrix":
            gain = _ro(self.gain)
            if gain.ndim != 2 or gain.shape[0] != gain.shape[1]:
                raise DomainError("gain must be a square matrix")
            _check_range("gain", gain, 0.0, 1.0)
            if np.any(np.diag(gain) != 1.0):
                raise DomainError("gain matrix must have unit diagonal")
            object.__setattr__(self, "gain", gain)
        elif fam == "similarity":
            sim = _ro(self.sim)
            if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
                raise DomainError("sim must be a square matrix")
            _check_range("sim", sim, -1.0, 1.0)
            if np.any(np.diag(sim) != 1.0):
                raise DomainError("similarity matrix must have unit diagonal")
            object.__setattr__(self, "sim", sim)

    # -- constructors ------------------------------------------------------

    @classmethod
    def top_class(cls) -> "UtilitySpec":
        return cls("top_class")

    @classmethod
    def class_wise(cls, c: int) -> "UtilitySpec":
        return cls("class_wise", c=int(c))

    @classmethod
    def top_k(cls, k: int) -> "UtilitySpec":
        return cls("top_k", k=int(k))

    @classmethod
    def rank(cls, theta) -> "UtilitySpec":
        return cls("rank", theta=theta)

    @classmethod
    def linear(cls, a) -> "UtilitySpec":
        return cls("linear", a=a)

    @classmethod
    def dcg(cls, gamma: float) -> "UtilitySpec":
        return cls("dcg", gamma=float(gamma))

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
        """Short stable identifier, used as a report key."""
        if self.family == "class_wise":
            return f"class_wise_{self.c}"
        if self.family == "top_k":
            return f"top_k_{self.k}"
        if self.family == "dcg":
            return f"dcg_{self.gamma:g}"
        return self.family

    def check_dim(self, C: int) -> None:
        fam = self.family
        if fam == "class_wise" and not 0 <= self.c < C:
            raise DomainError(f"class index {self.c} out of range for C={C}")
        if fam == "top_k" and not 1 <= self.k <= C:
            raise DomainError(f"K={self.k} out of range for C={C}")
        if fam == "rank" and self.theta.shape != (C,):
            raise DomainError(f"theta has length {len(self.theta)}, data has C={C}")
        if fam == "linear" and self.a.shape != (C,):
            raise DomainError(f"a has length {len(self.a)}, data has C={C}")
        if fam == "decision" and self.loss.shape[0] != C:
            raise DomainError(
                f"loss has {self.loss.shape[0]} rows, data has C={C}"
            )
        if fam == "gain_matrix" and self.gain.shape[0] != C:
            raise DomainError(f"gain is {self.gain.shape[0]}-square, data has C={C}")
        if fam == "similarity" and self.sim.shape[0] != C:
            raise DomainError(f"sim is {self.sim.shape[0]}-square, data has C={C}")

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


def sample_utility(family: str, C: int, rng: np.random.Generator) -> UtilitySpec:
    if family == "linear":
        return sample_linear(C, rng)
    if family == "rank":
        return sample_rank(C, rng)
    raise DomainError(f"no sampler for family {family!r}")


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return UtilitySpec.from_json_dict(d)
