"""Command line entry points.

    icosian build  {e8,600cell,24cell,120cell,snub24,dual-snub24} --out FILE
    icosian verify {table1,e8,groups,snub,dual,appendix,all} [--out FILE]
    icosian export {snub24,dual-snub24,600cell,24cell} --format {off,json}
                   [--cell K | --vertex-figure | --dual-cell] --out FILE
    icosian orbit  --weights a,b,c,d [--decompose] [--out FILE]

One grammar table holds every command and argument.  A request is read off
it in one pass; argparse, built from the same table, runs only for help and
usage errors, so it alone prints them.

Exit codes: 0 on success, 1 when verification or certification fails,
2 for usage errors.  All output is canonical: every run of a command
produces identical bytes, whatever the hash seed.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import dual, exports, hull, polytope, roots, verify
from .errors import (BadParameter, CertificationFailed, CoplanarityFailed,
                     InvalidSelector)
from .groups import binary_icosahedral, binary_tetrahedral, icosian_seed, rows_of

BUILD_OBJECTS = ("e8", "600cell", "24cell", "120cell", "snub24", "dual-snub24")
EXPORT_OBJECTS = ("snub24", "dual-snub24", "600cell", "24cell")
VERIFY_SUITES = ("table1", "e8", "groups", "snub", "dual", "appendix", "all")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParameter(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_doc(name: str) -> dict:
    points = {"e8": roots.e8_roots, "600cell": binary_icosahedral,
              "24cell": binary_tetrahedral}.get(name)
    if points is not None:  # a point set, written from the rows it keeps
        return {"object": name, "count": len(points()), "points": exports.points_to_json(points())}
    if name == "120cell":
        doc = exports.partition_to_json(polytope.build_120cell())
    elif name == "snub24":
        doc = exports.complex_to_json(polytope.snub_census())
    else:
        doc = exports.dual_complex_to_json(dual.dual_complex(), dual.dual_vertex_set(),
                                           polytope.snub_census().vertex_rows)
    return {**doc, "object": name}


def cmd_build(args) -> int:
    _write(args.out, exports.dumps(_build_doc(args.object)))
    return 0


def cmd_verify(args) -> int:
    certs = verify.run_suite(args.suite)
    print(verify.format_certificates(certs))
    if args.out:
        doc = {"suites": [c.to_json() for c in certs],
               "passed": all(c.passed for c in certs)}
        _write(args.out, exports.dumps(doc))
    return 0 if all(c.passed for c in certs) else 1


@lru_cache(maxsize=None)
def _export_complex(name: str):
    """The complex an object name exports, built once per process."""
    if name == "snub24":
        return polytope.snub_census()
    if name == "600cell":
        return polytope.cell_census(binary_icosahedral().elements)
    if name == "24cell":
        return polytope.cell_census(binary_tetrahedral().elements)
    return dual.dual_complex()


def _cell_geometry(name: str, index: int):
    """3D coordinates and hull faces of one cell, in the cell's own frame.

    A census cell slices both out of one table per complex, made on first use
    (PolytopeComplex.cell_geometry: vertex v sits at the vector part of v conj(n)),
    and a dual cell reads them off the snub census's polar: neither makes a hull.
    """
    complex_ = _export_complex(name)
    count = complex_.counts()[3]
    if not 0 <= index < count:
        raise InvalidSelector(f"cell index out of range 0..{count - 1}")
    return complex_.cell_geometry(index)


def _selected_part(args):
    """3D coordinates and faces of the part one selector picks, and a function
    giving its other JSON fields, called for JSON output only."""
    if args.vertex_figure:
        figure = polytope.vertex_figure(icosian_seed())
        return figure.coords, figure.faces, lambda: {
            "object": "snub24-vertex-figure",
            "vertex": exports.quaternion_to_json(figure.vertex),
            "neighbors": exports.points_to_json(figure.neighbors),
            "faces": [list(f) for f in figure.faces],
        }
    if args.dual_cell:
        cell = dual.dual_cell(icosian_seed())
        return cell.coords, cell.faces, lambda: {
            "object": "snub24-dual-cell",
            "vertex": exports.quaternion_to_json(cell.vertex),
            "points": exports.points_to_json(cell.vertices),
            "kites": [list(f) for f in cell.kites],
            "triangles": [list(f) for f in cell.triangles],
        }
    coords, faces = _cell_geometry(args.object, args.cell)
    return coords, faces, lambda: {"object": f"{args.object}-cell-{args.cell}",
                                   "faces": [list(f) for f in faces]}


def cmd_export(args) -> int:
    selectors = [s for s in ("cell", "vertex_figure", "dual_cell")
                 if getattr(args, s) is not None and getattr(args, s) is not False]
    if len(selectors) > 1:
        raise InvalidSelector("choose at most one of --cell, --vertex-figure, --dual-cell")
    if args.vertex_figure and args.object != "snub24":
        raise InvalidSelector("--vertex-figure applies to snub24 only")
    if args.dual_cell and args.object not in ("snub24", "dual-snub24"):
        raise InvalidSelector("--dual-cell applies to snub24 or dual-snub24 only")

    if not selectors:
        if args.format == "json":
            text = exports.dumps(_build_doc(args.object))
        else:
            complex_ = _export_complex(args.object)
            rows = (rows_of(dual.dual_vertex_set()) if args.object == "dual-snub24"
                    else complex_.vertex_rows)
            text = exports.off_text(exports.quaternion_coords(*rows), complex_.faces,
                                    complex_.counts()[1], args.digits)
    else:
        coords, faces, fields = _selected_part(args)
        if args.format == "off":
            edges = len(hull.edges_of_faces(faces))
            text = exports.off_text(coords, faces, edges, args.digits)
        else:
            text = exports.dumps({**fields(), "coords": exports.coords_to_json(coords)})
    _write(args.out, text)
    return 0


def _parse_weights(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("weights must be integers a,b,c,d")
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("need exactly four weights a,b,c,d")
    if any(v < 0 for v in vals) or not any(vals):
        raise argparse.ArgumentTypeError("weights must be nonnegative, not all zero")
    return vals


def _parse_digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("digits must be an integer")
    if not 1 <= digits <= exports.MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be 1 to {exports.MAX_DIGITS}")
    return digits


def cmd_orbit(args) -> int:
    weights = args.weights
    try:
        size, sizes = roots.weight_decomposition(weights)
    except OverflowError as exc:
        raise BadParameter(f"weights too large for exact int64 arithmetic: {exc}") from exc
    lines = [f"weights: {','.join(str(w) for w in weights)}",
             f"orbit size: {size}"]
    doc = {"weights": list(weights), "size": size}
    if args.decompose:
        lines.append(f"decomposition: {roots.format_decomposition(size, sizes)}")
        doc["decomposition"] = list(sizes)
    print("\n".join(lines))
    if args.out:
        _write(args.out, exports.dumps(doc))
    return 0


# The one grammar, read by make_parser and _match: each command's help, then its
# arguments in help order with their add_argument keywords.  A positional is
# required; an option's dest is its string less "--", with "-" read as "_".
_GRAMMAR = {
    "build": ("construct an object and write it as JSON", {
        "object": {"choices": BUILD_OBJECTS},
        "--out": {"required": True, "help": "output path, - for stdout"}}),
    "verify": ("run a verification suite", {
        "suite": {"choices": VERIFY_SUITES},
        "--out": {"help": "also write the certificate as JSON"}}),
    "export": ("write OFF or JSON geometry", {
        "object": {"choices": EXPORT_OBJECTS},
        "--format": {"choices": ("off", "json"), "required": True},
        "--cell": {"type": int, "default": None, "metavar": "K",
                   "help": "one cell, projected into its own hyperplane"},
        "--vertex-figure": {"action": "store_true",
                            "help": "the vertex figure at the generating vertex"},
        "--dual-cell": {"action": "store_true",
                        "help": "the dual cell at the generating vertex"},
        "--digits": {"type": _parse_digits, "default": 17,
                     "help": "significant digits for OFF output, "
                             f"1 to {exports.MAX_DIGITS} (default 17)"},
        "--out": {"required": True, "help": "output path, - for stdout"}}),
    "orbit": ("orbit of a weighted point under W(H4)", {
        "--weights": {"type": _parse_weights, "required": True, "metavar": "a,b,c,d"},
        "--decompose": {"action": "store_true",
                        "help": "also decompose the orbit under W(D4):C3"},
        "--out": {"help": "also write the result as JSON"}}),
}
_HANDLERS = {"build": cmd_build, "verify": cmd_verify, "export": cmd_export, "orbit": cmd_orbit}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icosian",
        description="Exact quaternionic constructions around the snub 24-cell.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, arguments) in _GRAMMAR.items():
        p_command = sub.add_parser(command, help=help_)
        for name, spec in arguments.items():
            p_command.add_argument(name, **spec)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process for help and usage errors only."""
    return make_parser()


def _match(argv) -> argparse.Namespace | None:
    """make_parser().parse_args(argv), read off _GRAMMAR in one pass; None at the
    first doubt: an unknown command or option string (help, an abbreviation,
    "--x=y", "--"), a repeat, a value starting with "-" other than "-", a second
    positional, a refused value or a missing required argument."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    arguments = _GRAMMAR[argv[0]][1]
    positional = next((name for name in arguments if name[0] != "-"), None)
    texts = {}  # argument name -> its text, None for a flag
    tokens = iter(argv[1:])
    for token in tokens:
        name, text = token, None
        if not token.startswith("-"):
            name, text = positional, token
        elif token not in arguments:
            return None
        elif arguments[token].get("action") != "store_true":
            text = next(tokens, None)
            if text is None or text.startswith("-") and text != "-":
                return None
        if name is None or name in texts:
            return None
        texts[name] = text
    args = argparse.Namespace(command=argv[0])
    for name, spec in arguments.items():
        if spec.get("action") == "store_true":
            value = name in texts
        elif name in texts:
            try:
                value = spec.get("type", str)(texts[name])
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        elif name == positional or spec.get("required"):
            return None
        else:
            value = spec.get("default")
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    """Serve one request: argv is read off the one grammar table in one pass,
    and argparse runs only when it asks for help or holds a usage error."""
    argv = sys.argv[1:] if argv is None else argv
    args = _match(argv) or _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (InvalidSelector, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificationFailed, CoplanarityFailed) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
