"""Command-line frontend.

Exit codes: 0 success / all properties hold, 1 a property was refuted,
2 bad input (unreadable or non-UTF-8 file, invalid JSON, invalid or
non-associative structure, unknown theorem id, unwritable census path).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from functools import partial
from itertools import islice

from . import __version__, enumeration, fuzzy, ideals, serialize, theorems
from .structure import StructureError


class _InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc


def _load(path, parse=serialize.structure_from_dict):
    """``parse`` of the JSON document at path; a rejection names the path."""
    try:
        return parse(_load_json(path))
    except StructureError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def cmd_validate(args) -> int:
    S = _load(args.path, partial(serialize.structure_from_dict,
                                 require_compat=not args.no_compat))
    print(f"valid structure: {S.n} elements, {S.m} operations, "
          f"digest {S.digest()}")
    print(f"  associative: {S.associative}")
    print(f"  order-compatible: {S.compatible}")
    return 0


def cmd_classify(args) -> int:
    S = _load(args.path)
    report = ideals.classify(S)
    if args.json:
        print(json.dumps(serialize.classification_to_dict(report), indent=2))
        return 0
    print(f"structure {report.structure}")
    for name, verdict in report.classes.items():
        state = "positive" if verdict.holds else "negative"
        deciders = ", ".join(f"{k}={v}" for k, v in verdict.deciders.items())
        print(f"  {name}: {state} ({deciders})")
        if verdict.holds:
            for w in verdict.witnesses:
                print(f"    witness: {w}")
        else:
            print(f"    failing element: {verdict.failing_element}")
    return 0


def _build_battery(S, args):
    if args.levels is not None and args.levels < 2:
        raise _InputError(f"--levels must be at least 2, got {args.levels}")
    battery = fuzzy.default_battery(S, args.levels, seed=args.seed or 0)
    if battery.sampled(S) and args.seed is None:
        raise _InputError(
            "battery exceeds the exhaustive cap; a --seed is required")
    return battery


def cmd_check(args) -> int:
    S = _load(args.path)
    battery = _build_battery(S, args)
    started = time.monotonic()
    if args.all:
        verdicts = theorems.check_all(S, battery)
    else:
        if args.theorem not in theorems.LAWS:
            raise _InputError(f"unknown theorem id {args.theorem!r}")
        verdicts = [theorems.check(S, args.theorem, battery)]
    elapsed = time.monotonic() - started
    refuted = any(v.outcome == "refuted" for v in verdicts)
    if args.json:
        doc = {
            "tool_version": __version__,
            "structure": S.digest(),
            "theorems": [v.to_dict() for v in verdicts],
            "timing_seconds": elapsed,
        }
        print(json.dumps(doc, indent=2))
    else:
        for v in verdicts:
            if v.outcome == "refuted":
                print(f"{v.theorem}: REFUTED  witness={json.dumps(v.witness)}")
            elif v.vacuous:
                print(f"{v.theorem}: holds (vacuously)")
            else:
                print(f"{v.theorem}: holds")
    return 1 if refuted else 0


def cmd_compose(args) -> int:
    S = _load(args.path)
    f, g = (_load(path, partial(serialize.fuzzy_from_dict, S))
            for path in (args.f, args.g))
    print(json.dumps(fuzzy.compose(f, g).to_dict()))
    return 0


def _write(path, mode, text=""):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def cmd_enumerate(args) -> int:
    try:
        spec = enumeration.SearchSpec(n=args.n, m=args.m, limit=args.limit,
                                      up_to_iso=args.up_to_iso)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if args.census:
        _write(args.census, "a")  # an unwritable path fails before enumerating
    counts = {name: 0 for name in ideals.CLASS_NAMES}
    total = 0
    stream = enumeration.enumerate_structures(replace(spec, limit=None))
    for S in islice(stream, spec.limit):
        total += 1
        report = ideals.classify(S)
        for name, verdict in report.classes.items():
            if verdict.holds:
                counts[name] += 1
    # one structure past the limit tells whether the stream was cut
    truncated = next(stream, None) is not None
    census = {"n": args.n, "m": args.m, "up_to_iso": args.up_to_iso,
              "total": total, "truncated": truncated, "classes": counts}
    if args.census:
        _write(args.census, "w", json.dumps(census, indent=2))
    print(json.dumps(census))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fuzzygamma",
        description="Workbench for finite ordered gamma-semigroups")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a structure file")
    sp.add_argument("path")
    sp.add_argument("--no-compat", action="store_true",
                    help="accept structures whose order is not compatible")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("classify", help="classify the regularity classes")
    sp.add_argument("path")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("check", help="run law checks")
    sp.add_argument("path")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--theorem", help="one theorem id (e.g. T13)")
    grp.add_argument("--all", action="store_true",
                     help="run the whole registry")
    sp.add_argument("--levels", type=int, default=None,
                    help="battery grid levels, at least 2 (default 2n+2)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for sampled batteries")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("compose", help="compose two fuzzy subset files")
    sp.add_argument("path")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("enumerate", help="enumerate small structures")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--up-to-iso", action="store_true")
    sp.add_argument("--census", help="write census JSON to this path")
    sp.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
