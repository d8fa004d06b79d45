"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 certificate failure, 3 resource
limit.  Identical invocations (including seeds) produce byte-identical
outputs; every JSON artifact embeds the parsed config and a schema version.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import density
from .construction import CertificateError, construct, tower_from_json, tower_to_json
from .density import (
    BUCK,
    axiom_suite,
    parse_rational,
    periodic_indicator,
    proxies,
)
from .oracles import parse_oracle, smallness_profile
from .sets import ResourceLimitError, loads_periodic
from .verify import theorem_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 with a usage line; the contract wants exit 1 and one line
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# _write hands a text stream this many characters at a time: a stream
# encodes all it is handed at once, so a whole 11 MB tower document would
# be held twice, once as str and once encoded
_WRITE_SLICE = 1 << 20


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            _write_slices(fh, text)
    else:
        _write_slices(sys.stdout, text if text.endswith("\n") else text + "\n")


def _write_slices(fh, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        fh.write(text[start:start + _WRITE_SLICE])


def _levels_csv(path: str, tower) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "size_H", "h", "k_chosen", "densityA", "L", "U"])
        for lv in tower.levels:
            w.writerow([lv.n, len(lv.H), lv.h, lv.k_chosen,
                        str(lv.density_a), str(lv.sum_lower), str(lv.sum_upper)])


def _cmd_construct(args) -> int:
    alpha = parse_rational(args.alpha)
    oracle = parse_oracle(args.b)
    tower = construct(oracle, alpha, args.depth, allow_deep=args.allow_deep)
    config = {
        "command": "construct", "b": args.b, "alpha": str(alpha),
        "depth": args.depth, "linear_k_search": args.linear_k_search,
        "allow_deep": args.allow_deep, "seed": args.seed,
    }
    _write(args.out, tower_to_json(tower, config))
    if args.csv:
        _levels_csv(args.csv, tower)
    if not tower.trivial:
        top = tower.top
        print(f"constructed depth {tower.depth}: |H_N|={len(top.H)}, "
              f"L={top.sum_lower}, U={top.sum_upper}", file=sys.stderr)
    else:
        print("alpha = 1: trivial tower, A = N", file=sys.stderr)
    return EXIT_OK


def _cmd_cover(args) -> int:
    oracle = parse_oracle(args.b)
    cover = oracle.cover(args.mod)
    print(len(cover))
    if args.dump:
        # block by block, so no list or string of every residue is built,
        # and one format per block makes no str per residue
        sep = ""
        for start in range(0, cover.modulus, 1 << 16):
            block = cover.members(start, min(start + (1 << 16), cover.modulus))
            if block.size:
                print(sep + ",".join(["%d"] * block.size) % tuple(block.tolist()), end="")
                sep = ","
        print()
    return EXIT_OK


def _cmd_profile(args) -> int:
    oracle = parse_oracle(args.b)
    profile = smallness_profile(oracle, args.n_max)
    if args.json:
        text = json.dumps(profile.to_json_dict(), indent=2) + "\n"
    else:
        text = "".join(f"n={n}  |cover(n!)|={size}  eps={eps}  (~{float(eps):.6g})\n"
                       for n, size, eps in profile.rows)
        text += f"verdict: {profile.verdict}\n"
    _write(args.out, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    oracle = parse_oracle(args.b)
    with open(args.tower) as fh:
        tower, _config = tower_from_json(fh.read())
    report = theorem_report(oracle, tower.alpha, tower.depth, args.horizon,
                            tower=tower)
    doc = report.to_json_dict()
    doc["cross_density"] = report.cross_density().to_json_dict()
    doc["config"] = {
        "command": "verify", "tower": args.tower, "b": args.b,
        "horizon": args.horizon,
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    if args.csv:
        report.write_csv(args.csv)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verify: {verdict} (certified interval [{report.interval_sum[0]}, "
          f"{report.interval_sum[1]}])", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CERTIFICATE


def _cmd_axioms(args) -> int:
    report = axiom_suite(BUCK, samples=args.samples, seed=args.seed)
    _write(args.out, report.to_json() + "\n")
    n_pass = sum(r.passed for r in report.results.values())
    print(f"axioms: {n_pass}/4 PASS", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CERTIFICATE


def _cmd_estimate(args) -> int:
    with open(args.set) as fh:
        pset = loads_periodic(fh.read())
    ind = periodic_indicator(pset, args.horizon)
    window = args.window if args.window is not None else density.default_window(args.horizon)
    (lo, hi), ban, log = proxies(ind, args.horizon, pset.modulus, window)
    print(f"exact density   : {pset.density()} (~{float(pset.density()):.9f})")
    print(f"asymptotic proxy: min={lo:.9f} max={hi:.9f}")
    print(f"banach proxy    : {ban:.9f} (window {window})")
    print(f"logarithmic     : {log:.9f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="buckdens",
                     description="Exact periodic-set densities, residue covers, "
                                 "and certified sumset-density towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and certify a tower")
    p.add_argument("--b", required=True, help="oracle spec (primes, factorials, "
                                              "powers, finite:..., file:..., pred-enum:...)")
    p.add_argument("--alpha", required=True, help="target density, p/q or decimal")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", help="tower JSON path (default stdout)")
    p.add_argument("--csv", help="per-level CSV path")
    p.add_argument("--linear-k-search", action="store_true",
                   help="no effect; echoed in the config")
    p.add_argument("--allow-deep", action="store_true", help="permit depth 11")
    p.add_argument("--seed", type=int, default=0, help="no effect; echoed in the config")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("cover", help="residue cover of B at a modulus")
    p.add_argument("--b", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="also print the residues")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("profile", help="smallness profile eps_n = |cover(n!)|/n!")
    p.add_argument("--b", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("verify", help="re-certify a tower and compare with counts")
    p.add_argument("--tower", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--csv", help="report CSV path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("axioms", help="axiom conformance suite")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("estimate", help="empirical density proxies of a periodic set")
    p.add_argument("--set", required=True, help="periodic-set text file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--window", type=int)
    p.set_defaults(fn=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificateError as e:
        print(f"certificate error: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
