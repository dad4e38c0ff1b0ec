"""Command-line surface for reproducible batch runs.

Subcommands: validate, evaluate, ecdf, patch-fit, patch-apply, synth,
oracle-check.  Every command is deterministic given its flags and seed; exit
codes are 0 on success, 3 on parse and I/O errors, 2 on every other
utilcal error.
"""

from __future__ import annotations

import argparse
import sys

from . import dataset, ecdf, estimators, patching
from .errors import DomainError, ParseError, UtilcalError
from .utilities import FAMILY_PARAMS, SAMPLERS, UtilitySpec, comb_pool, dcg_pool, load_utility_json


def _validated(args) -> tuple[dataset.LabeledPredictions, dataset.ValidationReport]:
    """The predictions/labels CSV pair of ``args`` and its validation report."""
    probs = dataset.load_predictions_csv(args.preds, header=args.header)
    labels = dataset.load_labels_csv(args.labels, header=args.header)
    preds = dataset.LabeledPredictions(probs, labels)
    return preds, dataset.validate(preds, renormalize=args.renormalize)


def _load_preds(args) -> dataset.LabeledPredictions:
    preds, report = _validated(args)
    return preds if report.corrected is None else report.corrected


def _parse_utility(token: str, C: int) -> list[tuple[str, UtilitySpec]]:
    """One --utility token: "comb" for the whole class-wise + top-K pool,
    "dcg" for the default gamma grid, a path to a spec JSON, "family" for a
    family without parameters, or "family:value" for a family whose one
    parameter is a scalar."""
    if token == "comb":
        return [(spec.label(), spec) for spec in comb_pool(C)]
    if token == "dcg":
        return [(spec.label(), spec) for spec in dcg_pool()]
    if token.endswith(".json"):
        spec = load_utility_json(token)
        return [(spec.label(), spec)]
    fam, sep, text = token.partition(":")
    rules = FAMILY_PARAMS.get(fam)
    # a ":value" part exactly when the family has one parameter, and only
    # scalar rules parse text
    if rules is None or len(rules) != len(sep) or not all(
        hasattr(rule, "parse") for rule in rules.values()
    ):
        raise DomainError(
            f"cannot interpret utility {token!r}: use top_class, class_wise:C, "
            "top_k:K, dcg:GAMMA, comb, or a path to a UtilitySpec JSON"
        )
    try:
        params = {name: rule.parse(text) for name, rule in rules.items()}
    except ValueError:
        raise DomainError(f"utility {token!r}: {text!r} is not a number") from None
    spec = UtilitySpec(fam, **params)
    return [(spec.label(), spec)]


def cmd_validate(args) -> int:
    if args.out is not None and not args.renormalize:
        raise DomainError("--out needs --renormalize")
    report = _validated(args)[1]
    dataset.write_json(None, report.to_json_dict())
    if args.out is not None:
        dataset.write_predictions_csv(args.out, report.corrected.probs)
    return 0


def cmd_evaluate(args) -> int:
    preds = _load_preds(args)
    scheme = estimators.BinScheme(kind=args.bin_kind, m=args.bins)
    named: list[tuple[str, UtilitySpec]] = []
    for token in args.utility or []:
        named.extend(_parse_utility(token, preds.C))
    seen: dict[str, int] = {}
    unique: list[tuple[str, UtilitySpec]] = []
    for name, spec in named:
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        unique.append((name, spec))
    report = estimators.evaluate_metrics(preds, scheme, unique)
    dataset.write_json(args.out, report.to_json_dict())
    return 0


def cmd_ecdf(args) -> int:
    if args.threads < 1:
        raise DomainError(f"--threads must be >= 1, got {args.threads}")
    preds = _load_preds(args)
    result = ecdf.ecdf_evaluate(
        preds,
        family=args.family,
        M=args.m,
        seed=args.seed,
        delta=args.delta,
        keep_utilities=args.keep_utilities,
    )
    ecdf.write_ecdf_csv(args.out, result)
    ecdf.write_ecdf_sidecar(args.out + ".json", result)
    return 0


def cmd_patch_fit(args) -> int:
    preds = _load_preds(args)
    seq = patching.fit(
        preds,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        augment_count=args.augment,
        augment_seed=args.seed,
    )
    seq.save(args.out)
    with open(args.out + ".history.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,err,brier\n")
        for i, h in enumerate(seq.history, start=1):
            fh.write(f"{i},{h.err:.17g},{h.brier_after:.17g}\n")
    return 0


def cmd_patch_apply(args) -> int:
    seq = patching.PatchSequence.load(args.sequence)
    probs = dataset.load_predictions_csv(args.preds, header=args.header)
    patched = patching.transform(probs, seq)
    dataset.write_predictions_csv(args.out, patched)
    return 0


def cmd_synth(args) -> int:
    if args.kind == "two-point":
        preds = dataset.gen_two_point(args.n_per_group)
        dist = dataset.two_point_distribution()
    elif args.kind == "calibrated":
        preds, dist = dataset.gen_calibrated(
            args.n, args.classes, args.support, args.seed
        )
    else:  # miscalibrated
        if args.spec is None:
            raise DomainError("synth miscalibrated needs --spec DISTRIBUTION_JSON")
        spec_dist = dataset.load_distribution_json(args.spec)
        preds, dist = dataset.gen_miscalibrated(spec_dist, args.n, args.seed)
    dataset.write_predictions_csv(args.out + ".preds.csv", preds.probs)
    dataset.write_labels_csv(args.out + ".labels.csv", preds.labels)
    dataset.write_distribution_json(args.out + ".dist.json", dist)
    return 0


def cmd_oracle_check(args) -> int:
    max_diff, failures = estimators.oracle_trials(
        trials=args.trials,
        n_max=args.n_max,
        c_max=args.c_max,
        seed=args.seed,
    )
    print(f"trials: {args.trials}")
    print(f"max |uc_hat - oracle|: {max_diff:.3e}")
    if failures:
        for t in failures:
            print(f"FAIL at trial {t} (stream ({args.seed}, {t}))")
        return 1
    print("all trials within 1e-12")
    return 0


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preds", required=True, help="predictions CSV, n rows x C floats")
    p.add_argument("--labels", required=True, help="labels CSV, one integer per line")
    p.add_argument("--header", action="store_true", help="skip one CSV header line")
    p.add_argument("--renormalize", action="store_true",
                   help="clamp entries to [0,1] and rescale rows to sum 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="utilcal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a predictions/labels pair")
    _add_io_flags(p)
    p.add_argument("--out", help="write renormalized predictions CSV here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="metric report for one dataset")
    _add_io_flags(p)
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--bin-kind", choices=["equal-weight", "equal-width"],
                   default="equal-weight")
    p.add_argument("--utility", action="append",
                   help="family keyword or UtilitySpec JSON path (repeatable)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ecdf", help="error eCDF over a sampled utility class")
    _add_io_flags(p)
    p.add_argument("--out", required=True, help="eCDF CSV path")
    p.add_argument("--family", choices=list(SAMPLERS), required=True)
    p.add_argument("--m", type=int, default=1500, help="number of sampled utilities")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for old command lines; must be >= 1 and "
                        "changes nothing (the sweep runs in one thread)")
    p.add_argument("--keep-utilities", action="store_true",
                   help="store the sampled utility specs in the sidecar for exact replay")
    p.set_defaults(func=cmd_ecdf)

    p = sub.add_parser("patch-fit", help="fit a patch sequence on calibration data")
    _add_io_flags(p)
    p.add_argument("--out", required=True, help="PatchSequence JSON path")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--augment", type=int, default=0,
                   help="sampled utilities per iteration, families taken in turn (0 = off)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_patch_fit)

    p = sub.add_parser("patch-apply", help="apply a patch sequence to predictions")
    p.add_argument("sequence", help="PatchSequence JSON from patch-fit")
    p.add_argument("--preds", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", required=True, help="patched predictions CSV")
    p.set_defaults(func=cmd_patch_apply)

    p = sub.add_parser("synth", help="write synthetic dataset files")
    p.add_argument("kind", choices=["two-point", "calibrated", "miscalibrated"])
    p.add_argument("--out", required=True,
                   help="output base path; writes BASE.preds.csv, BASE.labels.csv, BASE.dist.json")
    p.add_argument("--n-per-group", type=int, default=20)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--support", type=int, default=5)
    p.add_argument("--spec", help="FiniteDistribution JSON (miscalibrated)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle-check",
                       help="randomized uc_hat vs brute-force equivalence")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--c-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UtilcalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (ParseError, OSError)) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
