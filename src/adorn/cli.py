"""Command-line interface.

Subcommands: abelianize, series, alexander, classify-seifert, zoo,
verify-corpus.  Every command accepts ``--json`` for a machine-readable
report with the fixed shape {input, command, limits, stages, verdict,
timings_ms}; exit codes are the only pass/fail channel (0 success, 2 bad
input, 3 inconclusive under --strict, 1 corpus failures).

``_LIMITS`` is the one map between the five :class:`Budget` fields, their
flags and their keys in a report's ``limits``: the parser, :func:`_budget`
and the report all read it.  Zoo input, whether ``--zoo NAME --params CSV``,
a ``name(csv)`` factor or a corpus ``{"zoo", "params"}`` object, is decoded
by :func:`_zoo` alone, and :func:`adorn.zoo.make` checks its parameters.

When ``ADORN_CACHE_DIR`` is set, series runs persist each rewrite step as a
JSON file, making long runs resumable.  The key hashes a schema tag, the
presentation and the Tietze caps (``--max-gens`` and ``--max-length``), the
only limits that shape a step: runs that differ only in
``--max-depth``, ``--max-cosets`` or ``--timeout`` share entries.  A
malformed entry, or one whose index is not the stage's quotient order, is
treated as a miss and overwritten.

Each command imports the engine modules it runs when it runs, so a call
compiles only those: ``classify-seifert`` and ``zoo`` load no engine
module, and ``series`` loads no :mod:`adorn.alexander`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time

from .fpgroup import (DEFAULT_BUDGET, Budget, CapExceeded, GroupPresentation,
                      PresentationSyntaxError, format_presentation,
                      parse_presentation)
from .zoo import FAMILIES, SeifertData, classify_seifert, make


class CliError(Exception):
    """Bad input: the run prints the message and exits 2."""


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
    """The non-blank comma-separated items of ``text`` that lie outside
    parentheses, stripped."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


_PRODUCTS = ("free_product", "direct_product")


def _zoo(x, csv: str | None = None) -> GroupPresentation:
    """Zoo group from a family name and its ``--params`` CSV, from
    ``name(csv)`` text, or from a corpus ``{"zoo", "params"}`` object.  The
    CSV lists a product's two factor expressions, fuchsian's genus and then
    its cones, or else integers.  This only decodes: :func:`make` checks the
    parameters."""
    try:
        if isinstance(x, dict) and "zoo" in x:
            family, params = x["zoo"], x.get("params", [])
        elif isinstance(x, str):
            family = x
            if csv is None:
                name, paren, rest = x.strip().partition("(")
                if paren and not rest.endswith(")"):
                    raise CliError(f"malformed zoo expression {x.strip()!r}")
                family, csv = name.strip(), rest[:-1]
            params = _split_top_level(csv)
            if family not in _PRODUCTS:
                params = [int(v) for v in params]
            if family == "fuchsian" and params:
                params = [params[0], params[1:]]
        else:
            raise CliError(f"bad zoo input {x!r}")
        if family in _PRODUCTS:
            params = [_zoo(f) for f in params]
        return make(family, params)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _resolve_input(args) -> GroupPresentation:
    if args.zoo:
        if args.input:
            raise CliError("give either an inline presentation or --zoo, not both")
        return _zoo(args.zoo, args.params or "")
    if args.input:
        try:
            return parse_presentation(args.input)
        except PresentationSyntaxError as exc:
            raise CliError(f"parse error: {exc}") from exc
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    raise CliError("no input: pass a presentation string or --zoo NAME")


# (Budget field, flag, JSON ``limits`` key) of every limit: the one map
# between the three, read by the parser, by _budget and by the report
_LIMITS = (
    ("max_depth", "--max-depth", "max_depth"),
    ("max_cosets", "--max-cosets", "max_cosets"),
    ("max_generators", "--max-gens", "max_generators"),
    ("max_total_relator_length", "--max-length", "max_total_relator_length"),
    ("wall_clock_seconds", "--timeout", "timeout_seconds"),
)


def _budget(args) -> Budget:
    try:  # argparse stores --max-gens as args.max_gens
        return Budget(**{field: getattr(args, flag[2:].replace("-", "_"))
                         for field, flag, _ in _LIMITS})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(args, subject, verdict: dict, human: str, stages: list = (),
          budget: Budget | None = None) -> None:
    """Print ``human``, or with ``--json`` the report of the run, timed from
    the start of :func:`main`.  ``subject`` is the input presentation or a
    text describing the input."""
    if not args.json:
        print(human)
        return
    if isinstance(subject, GroupPresentation):
        subject = subject.name or format_presentation(subject)
    report = {
        "input": subject,
        "command": args.cmd,
        "limits": {key: getattr(budget, field) for field, _, key in _LIMITS} if budget else {},
        "stages": list(stages),
        "verdict": verdict,
        "timings_ms": {"total": round(1000 * (time.monotonic() - args.started), 3)},
    }
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_abelianize(args) -> None:
    from .abelian import abelianization

    inv = abelianization(p := _resolve_input(args))
    _emit(args, p, {"kind": "Abelianization",
                    "detail": {"invariants": str(inv), "rank": inv.rank,
                               "torsion": list(inv.torsion)}}, str(inv))


def cmd_series(args) -> int | None:
    from .derived import INCONCLUSIVE, derived_series

    p = _resolve_input(args)
    budget = _budget(args)
    cache_dir = os.environ.get("ADORN_CACHE_DIR")
    cache = FileStepCache(cache_dir) if cache_dir else None
    stages, verdict = derived_series(p, budget, step_cache=cache)
    lines = []
    for s in stages:
        flags = f"  [{', '.join(sorted(s.flags))}]" if s.flags else ""
        lines.append(f"stage {s.depth}: gens={s.n_generators} "
                     f"relators={s.n_relators} length={s.total_length} "
                     f"quotient={s.invariants}{flags}")
    lines.append(f"verdict: {verdict}")
    _emit(args, p, verdict.to_dict(), "\n".join(lines),
          [s.to_dict() for s in stages], budget)
    return 3 if args.strict and verdict.kind == INCONCLUSIVE else None


def cmd_alexander(args) -> None:
    from .alexander import AlexanderError, knot_adorability_report

    p = _resolve_input(args)
    try:
        rep = knot_adorability_report(p)
    except AlexanderError as exc:
        raise CliError(f"not a knot-like presentation: {exc}") from exc
    kind = "Adorable" if rep.adorable else "NotAdorable"
    _emit(args, p, {"kind": kind, "detail": rep.to_dict()},
          f"Δ = {rep.polynomial}, {rep.verdict}")


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
        return SeifertData(base_genus=genus, cone_indices=cones,
                           has_boundary=boundary)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_classify_seifert(args) -> None:
    data = _seifert_data(args.genus, args.cones, args.boundary)
    result = classify_seifert(data)
    desc = (f"seifert(genus={data.base_genus}, cones={list(data.cone_indices)}, "
            f"boundary={data.has_boundary})")
    _emit(args, desc, {"kind": result.branch, "detail": {"trace": list(result.trace)}},
          f"{result.branch} ({result.trace[0]})")


def cmd_zoo(args) -> None:
    if not args.family:
        _emit(args, "", {"kind": "Families", "detail": {"families": list(FAMILIES)}},
              "\n".join(FAMILIES))
        return
    p = _zoo(args.family, args.params or "")
    text = format_presentation(p)
    _emit(args, p, {"kind": "Presentation", "detail": {"presentation": text}}, text)


# ---------------------------------------------------------------------------
# corpus verification

_EXPECT_KEYS = {"abelianization", "verdict", "doa", "alexander", "seifert_branch"}


def _corpus_input(entry: dict):
    src = entry.get("input")
    if isinstance(src, str):
        return parse_presentation(src)
    if isinstance(src, dict) and "zoo" in src:
        return _zoo(src)
    if isinstance(src, dict) and isinstance(src.get("seifert"), dict):
        d = src["seifert"]
        return _seifert_data(d.get("genus", 0), d.get("cones", []),
                             d.get("boundary", False))
    raise CliError(f"corpus entry {entry.get('name')!r}: bad input field")


def _stopped(limits, layer: str | None) -> str:
    """The row value of a check that limits stopped, naming them and the
    layer they stopped, if any: ``Inconclusive(wall_clock@smith_normal_form)``."""
    from .derived import INCONCLUSIVE

    return f"{INCONCLUSIVE}({','.join(limits)}{'@' + layer if layer else ''})"


def _unless_stopped(check):
    """The check's result, or :func:`_stopped` when a limit stopped it."""
    try:
        return check()
    except CapExceeded as exc:
        return _stopped((exc.limit,), exc.layer)


def _check_entry(entry: dict, budget: Budget) -> list[tuple[str, str, str, bool]]:
    from .abelian import abelianization
    from .alexander import knot_adorability_report
    from .derived import INCONCLUSIVE, derived_series

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
        got["verdict"] = (_stopped(verdict.limits_hit, verdict.reason)
                          if verdict.kind == INCONCLUSIVE else verdict.kind)
        got["doa"] = verdict.doa
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

    def add_input(sp):
        sp.add_argument("input", nargs="?", help="presentation, e.g. '< a, b | a^2 >'")
        sp.add_argument("--zoo", metavar="NAME", help="zoo family name")
        sp.add_argument("--params", metavar="CSV", help="zoo family parameters")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    def add_limits(sp):
        for field, flag, _ in _LIMITS:
            default = getattr(DEFAULT_BUDGET, field)
            sp.add_argument(flag, type=type(default), default=default,
                            metavar="SECS" if flag == "--timeout" else None)

    sp = sub.add_parser("abelianize", help="print the abelianization",
                        description="Print the abelianization.  Runs with no time "
                                    "limit: there is no --timeout.")
    add_input(sp)
    sp.set_defaults(fn=cmd_abelianize)

    sp = sub.add_parser("series", help="run the derived-series engine")
    add_input(sp)
    add_limits(sp)
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
    args.started = time.monotonic()  # every --json report is timed from here
    try:
        return args.fn(args) or 0  # a command returns None for success
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
