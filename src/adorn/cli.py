"""Command-line interface.

Subcommands: abelianize, series, alexander, classify-seifert, zoo,
verify-corpus.  Every command accepts ``--json`` for a machine-readable
report with the fixed shape {input, command, limits, stages, verdict,
timings_ms}; exit codes are the only pass/fail channel (0 success, 2 bad
input, 3 inconclusive under --strict, 1 corpus failures).

When ``ADORN_CACHE_DIR`` is set, series runs persist each rewrite step as a
JSON file, making long runs resumable.  The key hashes a schema tag, the
presentation and the Tietze caps (``--max-gens`` and ``--max-length``), the
only limits that shape a step: runs that differ only in
``--max-depth``, ``--max-cosets`` or ``--timeout`` share entries.  A
malformed entry, or one whose index is not the stage's quotient order, is
treated as a miss and overwritten.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time

from .abelian import abelianization
from .alexander import AlexanderError, knot_adorability_report
from .derived import INCONCLUSIVE, derived_series
from .fpgroup import (DEFAULT_BUDGET, Budget, CapExceeded, GroupPresentation,
                      PresentationSyntaxError, format_presentation,
                      parse_presentation)
from .zoo import FAMILIES, SeifertData, classify_seifert, make


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


class FileStepCache:
    """Step cache persisted as JSON files in a directory."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> dict | None:
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, value: dict) -> None:
        """Write atomically: a reader sees the old entry or the new one,
        never a partial file."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(value, fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            os.unlink(tmp)
            raise


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _zoo_cli(family: str, csv: str) -> GroupPresentation:
    """Zoo group from ``--params``, where fuchsian's cones follow its genus."""
    params: list = _split_top_level(csv)
    if family == "fuchsian" and params:
        params = [params[0], params[1:]]
    return _zoo_group(family, params)


def _zoo_group(family: str, params: list) -> GroupPresentation:
    """Zoo group from parameters shaped as in a corpus file: two factors for
    a product, ``[genus, [cones]]`` for fuchsian, else integers or their text."""
    try:
        if family in ("free_product", "direct_product"):
            if len(params) != 2:
                raise CliError(f"{family} needs exactly two factor expressions")
            return make(family, tuple(_zoo_factor(x) for x in params))
        if family == "fuchsian":
            if len(params) != 2 or not isinstance(params[1], list):
                raise CliError("fuchsian needs genus followed by cone indices")
            return make(family, (int(params[0]), tuple(int(x) for x in params[1])))
        return make(family, tuple(int(x) for x in params))
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _zoo_factor(x) -> GroupPresentation:
    """A corpus ``{"zoo": ..}`` object, or ``name`` or ``name(csv)`` text."""
    if isinstance(x, dict) and "zoo" in x:
        return _zoo_group(x["zoo"], x.get("params", []))
    if not isinstance(x, str):
        raise CliError(f"bad zoo input {x!r}")
    name, paren, rest = x.strip().partition("(")
    if paren and not rest.endswith(")"):
        raise CliError(f"malformed zoo expression {x.strip()!r}")
    return _zoo_cli(name.strip(), rest[:-1])


def _resolve_input(args) -> GroupPresentation:
    if getattr(args, "zoo", None):
        if getattr(args, "input", None):
            raise CliError("give either an inline presentation or --zoo, not both")
        return _zoo_cli(args.zoo, args.params or "")
    if getattr(args, "input", None):
        try:
            return parse_presentation(args.input)
        except PresentationSyntaxError as exc:
            raise CliError(f"parse error: {exc}") from exc
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError("no input: pass a presentation string or --zoo NAME")


def _budget(args) -> Budget:
    try:
        return Budget(max_depth=args.max_depth, max_cosets=args.max_cosets,
                      max_generators=args.max_gens,
                      max_total_relator_length=args.max_length,
                      wall_clock_seconds=args.timeout)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _report(command: str, input_desc: str, limits: dict | None,
            stages: list, verdict: dict, started: float) -> dict:
    return {
        "input": input_desc,
        "command": command,
        "limits": limits or {},
        "stages": stages,
        "verdict": verdict,
        "timings_ms": {"total": round(1000 * (time.monotonic() - started), 3)},
    }


def _emit(args, report: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(human)


def _limits_dict(budget: Budget) -> dict:
    return {
        "max_depth": budget.max_depth,
        "max_cosets": budget.max_cosets,
        "max_generators": budget.max_generators,
        "max_total_relator_length": budget.max_total_relator_length,
        "timeout_seconds": budget.wall_clock_seconds,
    }


def cmd_abelianize(args) -> int:
    started = time.monotonic()
    p = _resolve_input(args)
    inv = abelianization(p)
    verdict = {"kind": "Abelianization",
               "detail": {"invariants": str(inv), "rank": inv.rank,
                          "torsion": list(inv.torsion)}}
    report = _report("abelianize", p.name or format_presentation(p), None,
                     [], verdict, started)
    _emit(args, report, str(inv))
    return 0


def cmd_series(args) -> int:
    started = time.monotonic()
    p = _resolve_input(args)
    budget = _budget(args)
    cache_dir = os.environ.get("ADORN_CACHE_DIR")
    cache = FileStepCache(cache_dir) if cache_dir else None
    stages, verdict = derived_series(p, budget, step_cache=cache)
    report = _report("series", p.name or format_presentation(p),
                     _limits_dict(budget), [s.to_dict() for s in stages],
                     verdict.to_dict(), started)
    lines = []
    for s in stages:
        flags = f"  [{', '.join(sorted(s.flags))}]" if s.flags else ""
        lines.append(f"stage {s.depth}: gens={s.n_generators} "
                     f"relators={s.n_relators} length={s.total_length} "
                     f"quotient={s.invariants}{flags}")
    lines.append(f"verdict: {verdict}")
    _emit(args, report, "\n".join(lines))
    if args.strict and verdict.kind == INCONCLUSIVE:
        return 3
    return 0


def cmd_alexander(args) -> int:
    started = time.monotonic()
    p = _resolve_input(args)
    try:
        rep = knot_adorability_report(p)
    except AlexanderError as exc:
        raise CliError(f"not a knot-like presentation: {exc}") from exc
    kind = "Adorable" if rep.adorable else "NotAdorable"
    report = _report("alexander", p.name or format_presentation(p), None, [],
                     {"kind": kind, "detail": rep.to_dict()}, started)
    _emit(args, report, f"Δ = {rep.polynomial}, {rep.verdict}")
    return 0


def _seifert_data(genus, cones, boundary) -> SeifertData:
    """Seifert input from ``--genus``/``--cones``, where the cones are CSV
    text, or from a corpus ``{"seifert": ..}`` object, where they are a list."""
    try:
        if isinstance(cones, str):
            cones = [int(x) for x in _split_top_level(cones)]
        if not (isinstance(cones, list) and isinstance(boundary, bool)
                and all(type(x) is int for x in (genus, *cones))):
            raise ValueError(f"seifert genus and cones must be integers, got "
                             f"genus {genus!r} and cones {cones!r}")
        return SeifertData(base_genus=genus, cone_indices=tuple(cones),
                           has_boundary=boundary)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_classify_seifert(args) -> int:
    started = time.monotonic()
    data = _seifert_data(args.genus, args.cones, args.boundary)
    result = classify_seifert(data)
    desc = (f"seifert(genus={data.base_genus}, cones={list(data.cone_indices)}, "
            f"boundary={data.has_boundary})")
    report = _report("classify-seifert", desc, None, [],
                     {"kind": result.branch, "detail": {"trace": list(result.trace)}},
                     started)
    _emit(args, report, f"{result.branch} ({result.trace[0]})")
    return 0


def cmd_zoo(args) -> int:
    started = time.monotonic()
    if not args.family:
        listing = "\n".join(FAMILIES)
        report = _report("zoo", "", None, [],
                         {"kind": "Families", "detail": {"families": list(FAMILIES)}},
                         started)
        _emit(args, report, listing)
        return 0
    p = _zoo_cli(args.family, args.params or "")
    report = _report("zoo", p.name, None, [],
                     {"kind": "Presentation",
                      "detail": {"presentation": format_presentation(p)}},
                     started)
    _emit(args, report, format_presentation(p))
    return 0


# ---------------------------------------------------------------------------
# corpus verification

_EXPECT_KEYS = {"abelianization", "verdict", "doa", "alexander", "seifert_branch"}


def _corpus_input(entry: dict):
    src = entry.get("input")
    if isinstance(src, str):
        return parse_presentation(src)
    if isinstance(src, dict) and "zoo" in src:
        return _zoo_factor(src)
    if isinstance(src, dict) and isinstance(src.get("seifert"), dict):
        d = src["seifert"]
        return _seifert_data(d.get("genus", 0), d.get("cones", []),
                             d.get("boundary", False))
    raise CliError(f"corpus entry {entry.get('name')!r}: bad input field")


def _unless_stopped(check):
    """The check's result, or ``Inconclusive`` when a limit stopped it, as
    a stopped series check reports."""
    try:
        return check()
    except CapExceeded:
        return INCONCLUSIVE


def _check_entry(entry: dict, budget: Budget) -> list[tuple[str, str, str, bool]]:
    expect = entry.get("expect", {})
    unknown = set(expect) - _EXPECT_KEYS
    if unknown:
        raise CliError(f"corpus entry {entry.get('name')!r}: unknown expectation "
                       f"keys {sorted(unknown)}")
    subject = _corpus_input(entry)
    presentation_keys = {"abelianization", "verdict", "doa", "alexander"} & set(expect)
    if isinstance(subject, SeifertData) and presentation_keys:
        raise CliError(f"corpus entry {entry.get('name')!r}: "
                       f"{sorted(presentation_keys)} need a presentation input")
    budget = budget.start()  # one deadline bounds every check of the entry
    got: dict = {}  # in the order the rows are printed
    if "seifert_branch" in expect:
        if not isinstance(subject, SeifertData):
            raise CliError(f"corpus entry {entry.get('name')!r}: seifert_branch "
                           f"needs a seifert input")
        got["seifert_branch"] = classify_seifert(subject).branch
    if "abelianization" in expect:
        got["abelianization"] = _unless_stopped(lambda: str(abelianization(subject, budget)))
    if "verdict" in expect or "doa" in expect:
        _, verdict = derived_series(subject, budget)
        got["verdict"], got["doa"] = verdict.kind, verdict.doa
    if "alexander" in expect:
        got["alexander"] = _unless_stopped(
            lambda: str(knot_adorability_report(subject, budget).polynomial))
    return [(key, str(expect[key]), str(value), value == expect[key])
            for key, value in got.items() if key in expect]


def cmd_verify_corpus(args) -> int:
    budget = _budget(args)
    ok = True
    for path in args.paths:
        try:
            with open(path) as fh:
                entries = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read corpus {path}: {exc}") from exc
        if not isinstance(entries, list):
            raise CliError(f"corpus {path}: expected a JSON array of entries")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CliError(f"corpus {path}: entry {i} is not a JSON object")
            name = entry.get("name", "<unnamed>")
            if not isinstance(entry.get("expect", {}), dict):
                raise CliError(f"corpus {path}: entry {name!r}: expect is not a JSON object")
            try:
                rows = _check_entry(entry, budget)
            except CliError:
                raise
            except Exception as exc:  # computation failed outright
                ok = False
                print(f"FAIL {name}: error: {exc}")
                continue
            for check, want, got, passed in rows:
                ok = ok and passed
                status = "pass" if passed else "FAIL"
                print(f"{status:4} {name}: {check} expected {want!r} got {got!r}")
    return 0 if ok else 1


@functools.cache  # built once per process; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adorn",
        description="derived series, adorability verdicts, and friends for "
                    "finitely presented groups")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_input(sp, with_limits=False):
        sp.add_argument("input", nargs="?", help="presentation, e.g. '< a, b | a^2 >'")
        sp.add_argument("--zoo", metavar="NAME", help="zoo family name")
        sp.add_argument("--params", metavar="CSV", help="zoo family parameters")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if with_limits:
            add_limits(sp)

    def add_limits(sp):
        b = DEFAULT_BUDGET
        sp.add_argument("--max-depth", type=int, default=b.max_depth)
        sp.add_argument("--max-cosets", type=int, default=b.max_cosets)
        sp.add_argument("--max-gens", type=int, default=b.max_generators)
        sp.add_argument("--max-length", type=int, default=b.max_total_relator_length)
        sp.add_argument("--timeout", type=float, default=b.wall_clock_seconds,
                        metavar="SECS")

    sp = sub.add_parser("abelianize", help="print the abelianization",
                        description="Print the abelianization.  Runs with no time "
                                    "limit: there is no --timeout.")
    add_input(sp)
    sp.set_defaults(fn=cmd_abelianize)

    sp = sub.add_parser("series", help="run the derived-series engine")
    add_input(sp, with_limits=True)
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 when the verdict is Inconclusive")
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("alexander", help="Alexander polynomial and knot verdict",
                        description="Alexander polynomial and knot verdict.  Runs "
                                    "with no time limit: there is no --timeout.")
    add_input(sp)
    sp.set_defaults(fn=cmd_alexander)

    sp = sub.add_parser("classify-seifert", help="Seifert base-orbifold classifier")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--cones", metavar="CSV", default="")
    sp.add_argument("--boundary", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_classify_seifert)

    sp = sub.add_parser("zoo", help="list families or print a presentation")
    sp.add_argument("family", nargs="?")
    sp.add_argument("--params", metavar="CSV")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_zoo)

    sp = sub.add_parser("verify-corpus", help="run a JSON corpus of expectations")
    sp.add_argument("paths", nargs="+", metavar="PATH")
    add_limits(sp)
    sp.set_defaults(fn=cmd_verify_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
