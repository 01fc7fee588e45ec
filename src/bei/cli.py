"""Command-line front end.

Verbs: construct, cutsets, check, invariants, gadget, scan, export.
``construct --corona BASE PENDANT [--attach L]`` builds every product: the
L-corona, with L every base vertex unless given.  A cone over G is
``--corona K1 G``, its apex vertex 0.  A graph argument is an inline name
(K5, P3, C4), a file path, or ``-`` for stdin; ``_graph_arg`` states how
its format is told.

Results go to stdout; a user who wants a file uses the shell's ``>``.  A
refusal (bad input, a bound exceeded, a file that cannot be read or
written) is one JSON object, ``{"error": ..., "kind": ...}``, on stderr
with exit 1, and a usage error is argparse's, with exit 2.  The only files
``bei`` writes are the scripts that ``invariants --emit-cas`` and
``scan --scripts-dir`` name.

Each verb's arguments, command and own helpers live in ``bei._verb_<verb>``
(``bei._verb_cutsets`` and so on), which exposes ``add_arguments(p)`` and
``run(args)`` and is imported only when that verb is dispatched, so a call
compiles only the verb it runs.  This module keeps the parser, the dispatch
and its error mapping, and the helpers that two or more verbs share.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from importlib import import_module
from io import DEFAULT_BUFFER_SIZE
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .corona import _SPEC_FIELDS, corona_spec_from_json, l_corona
from .cutsets import DEFAULT_BOUND, EnumerationBoundError, check_bound
from .graph import _BRIEF_MAX, Graph, _brief
from .io import (
    from_graph6, graph_from_json, graph_from_name, is_graph6_word, is_graph_name, parse_edge_list, read_json
)

# no shared helper uses these: the traced benchmark wraps their functions
# after ``import bei.cli``, and reads their import times from
# ``python -X importtime``, which logs only import statements
from .bms import bms_scan  # noqa: F401
from .cas import emit_cas_script  # noqa: F401
from .invariants import BaseInvariants  # noqa: F401


def _graph_arg(token: str, check_n: Callable[[int], None] | None = None) -> Graph:
    """Resolve a graph argument: inline name, file path, or '-' for stdin.

    A name always stands for the named graph (a file called ``K3`` is given
    as ``./K3``).  Any other input states its format: a ``.g6`` or
    ``.graph6`` suffix means graph6 and ``.json`` JSON.  With neither, text
    that starts with ``{`` and holds ``"`` is JSON, a first nonblank line
    that is one word of graph6 characters (after an optional ``>>graph6<<``
    header) is graph6, and anything else is an edge list.  No valid input
    fits two of these: a JSON graph's keys are quoted, no graph6 character
    is ``"``, and an edge-list line holds two words.  A graph6 input of more
    than one graph is refused; ``bei scan`` reads a corpus.  A JSON object
    with any key of a corona spec (``corona._SPEC_FIELDS``) is one, which
    stands for its constructed product and must hold every key.

    ``check_n`` sees the vertex count a graph name, graph6 line, JSON object
    (a spec's product included) or edge list of indices declares before a
    graph of that size is built."""
    if is_graph_name(token):
        return graph_from_name(token, check_n)
    if token == "-":
        text, source = sys.stdin.read(), "stdin"
    else:
        path = Path(token)
        try:
            # Path("") is ".", a directory the user never named
            found = bool(token) and path.exists()
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                raise
            found = False  # no file has a name too long for the file system
        if not found:
            shown = token if 0 < len(token) <= _BRIEF_MAX else _brief(token, "str")
            raise ValueError(f"no such file or graph name: {shown}")
        text, source = path.read_text(), token
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{source} holds no graph")
    lower = token.lower()
    g6_suffix = lower.endswith((".g6", ".graph6"))
    if lower.endswith(".json") or (not g6_suffix and text.lstrip().startswith("{") and '"' in text):
        obj = read_json(text)
        if isinstance(obj, dict) and not obj.keys().isdisjoint(_SPEC_FIELDS):
            return l_corona(corona_spec_from_json(obj, check_n))
        return graph_from_json(obj, check_n)
    if g6_suffix or is_graph6_word(lines[0]):
        if len(lines) > 1:
            raise ValueError(
                f"{source} holds {len(lines)} graph6 lines, not one graph: a corpus is read by bei scan"
            )
        return from_graph6(lines[0], check_n)
    return parse_edge_list(text, check_n)


def _input_graph(args, searches: bool = True, where: str = "") -> Graph:
    """``--input``.  Where a cutset search runs, a declared vertex count
    above ``--bound`` is refused before the graph is built; elsewhere
    ``--bound`` itself is refused, as applying only to ``where``."""
    _applies_only(args, "--bound", searches, where)
    check_n = (lambda n: check_bound(n, args.bound)) if searches else None
    return _graph_arg(args.input, check_n)


def _named_file(value: str, flag: str) -> Path:
    """The file a path option names.  ``Path("")`` is ``.``, a directory
    the user never named, and ``open("")`` fails only once the work is
    done, so an empty name is refused, as ``-i ''`` is."""
    if not value:
        raise ValueError(f"{flag} needs a file name, got ''")
    return Path(value)


def _write_out(text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces, to stdout.  Pieces are joined until
    they reach ``io.DEFAULT_BUFFER_SIZE`` characters, then written: a long
    listing is never held whole, a write holds about one buffer's worth
    however long or short the rows are, and no row is a syscall of its own
    when unbuffered."""
    chunk: list[str] = []
    size = 0
    for piece in [text] if isinstance(text, str) else text:
        chunk.append(piece)
        size += len(piece)
        if size >= DEFAULT_BUFFER_SIZE:
            sys.stdout.write("".join(chunk))
            chunk.clear()
            size = 0
    sys.stdout.write("".join(chunk))


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of the comma-separated list given to ``flag``; empty
    tokens are skipped, so ``""`` is the empty list."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {_brief(text, 'str')}") from None


def _given(args, flag: str) -> bool:
    value = getattr(args, flag[2:].replace("-", "_"))
    return value is not None and value is not False


def _one_of(args, *flags: str) -> str:
    """The one option of ``flags`` that was given; none or several is a
    ValueError, so that no mode is silently dropped."""
    given = [f for f in flags if _given(args, f)]
    if len(given) == 1:
        return given[0]
    if given:
        listing = ", ".join(given[:-1]) + " and " + given[-1]
        raise ValueError(f"give one of {listing}, not {'both' if len(given) == 2 else 'all'}")
    raise ValueError(f"choose one of {', '.join(flags)}")


def _applies_only(args, flag: str, applies: bool, where: str) -> None:
    """Refuse ``flag`` where it does not apply, so that no option the chosen
    mode never reads is silently dropped."""
    if not applies and _given(args, flag):
        raise ValueError(f"{flag} applies only to {where}")


def _not_negative(value: int | None, name: str) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{name} must be at least 0, got {_brief(str(value))}")


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, input_flag: bool = True) -> None:
    """``--bound``, which every verb but construct takes, and ``--input``
    where the verb reads one graph."""
    if input_flag:
        p.add_argument(
            "--input",
            "-i",
            required=True,
            help='graph: name, file, or -; JSON if .json or {..."...}, one graph6 line if .g6, '
            ".graph6 or a graph6 word, else an edge list",
        )
    p.add_argument(
        "--bound",
        type=int,
        help="most vertices a cutset search takes, and the largest set check --chain searches "
        f"(default: {DEFAULT_BOUND})",
    )


# each verb and its help line; ``bei._verb_<verb>`` adds its arguments and runs it
_VERBS = (
    ("construct", "build corona products (a cone over G is --corona K1 G)"),
    ("cutsets", "enumerate all cutsets with verdicts"),
    ("check", "combinatorial verdicts for one graph"),
    ("invariants", "closed-form invariant reports"),
    ("gadget", "diameter-2/3 wrappers and their verification"),
    ("scan", "classify a graph6 corpus (JSON lines out)"),
    ("export", "convert a graph between formats"),
)


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The ``bei`` parser with every verb registered; only ``verb``'s
    subparser, or every one when ``verb`` is None, gets its arguments, and
    only its module is imported."""
    parser = argparse.ArgumentParser(
        prog="bei",
        description="Cutset combinatorics and invariant formulas for binomial edge ideals of corona-type products. "
        "Results go to stdout. A refusal is a JSON object on stderr with exit 1, and a usage error exits 2. "
        "The only files bei writes are the scripts named by --emit-cas and --scripts-dir.",
    )
    parser.add_argument("--version", action="version", version=f"bei {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, help_line in _VERBS:
        p = sub.add_parser(name, help=help_line)
        if verb is None or verb == name:
            module = import_module(f"._verb_{name}", __package__)
            module.add_arguments(p)
            p.set_defaults(func=module.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level options take no value, so the first other word names the
    # verb; with none, as in ``bei --help``, no verb's arguments are built
    verb = next((word for word in argv if not word.startswith("-")), "")
    args = build_parser(verb).parse_args(argv)
    try:
        _not_negative(getattr(args, "bound", None), "--bound")
        return args.func(args)
    except EnumerationBoundError as exc:
        kind, error = "bound-exceeded", str(exc)
    except (ValueError, KeyError, OverflowError) as exc:
        # OverflowError: a number too large to index or shift by; every
        # vertex count and index is checked first, so no input is known to
        # reach this, and it stays only as a fallback
        kind, error = "invalid-input", str(exc)
    except MemoryError as exc:
        # a graph too large to hold, such as {"n": 200000000} under a 1 GiB
        # address-space limit, or a listing too long for the memory left;
        # MemoryError usually carries no message
        kind = "invalid-input"
        error = f"out of memory: {str(exc) or 'the graph or its results do not fit'}"
    except OSError as exc:
        # str(exc) repeats the whole file name: a long one is shown by its length
        kind, error = "io-error", str(exc)
        if exc.filename is not None:
            error = f"[Errno {exc.errno}] {exc.strerror}: {_brief(str(exc.filename), 'str')}"
    sys.stderr.write(json.dumps({"error": error, "kind": kind}) + "\n")
    return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    # run as ``python -m bei.cli``: a verb module's ``from .cli import`` must
    # find this module, not compile and run cli.py a second time
    sys.modules["bei.cli"] = sys.modules[__name__]
    console_main()
