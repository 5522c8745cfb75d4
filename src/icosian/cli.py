"""Command line entry points.

    icosian build  {e8,600cell,24cell,120cell,snub24,dual-snub24} --out FILE
    icosian verify {table1,e8,groups,snub,dual,appendix,all} [--out FILE]
    icosian export {snub24,dual-snub24,600cell,24cell} --format {off,json}
                   [--cell K | --vertex-figure | --dual-cell] --out FILE
    icosian orbit  --weights a,b,c,d [--decompose] [--out FILE]

Exit codes: 0 on success, 1 when verification or certification fails,
2 for usage errors.  All output is canonical: every run of a command
produces identical bytes, whatever the hash seed.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import dual, exports, polytope, roots, verify
from .errors import (BadParameter, CertificationFailed, CoplanarityFailed,
                     InvalidSelector)
from .groups import binary_icosahedral, binary_tetrahedral, icosian_seed

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
    if name == "e8":
        system = roots.e8_roots()
        return {"object": name, "count": len(system.roots),
                "points": exports.points_to_json(system.roots)}
    if name == "600cell":
        pts = binary_icosahedral().elements
        return {"object": name, "count": len(pts),
                "points": exports.points_to_json(pts)}
    if name == "24cell":
        pts = binary_tetrahedral().elements
        return {"object": name, "count": len(pts),
                "points": exports.points_to_json(pts)}
    if name == "120cell":
        doc = exports.partition_to_json(polytope.build_120cell())
        doc["object"] = name
        return doc
    if name == "snub24":
        doc = exports.complex_to_json(polytope.snub_census())
        doc["object"] = name
        return doc
    doc = exports.dual_complex_to_json(dual.dual_complex())
    doc["object"] = name
    return doc


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

    Both kinds of complex move each cell's faces from a certified hull: a
    census cell takes its orbit representative's, made once per object,
    and a dual cell the seed's (PolytopeComplex and DualComplex
    .cell_geometry).
    """
    complex_ = _export_complex(name)
    if not 0 <= index < len(complex_.cells):
        raise InvalidSelector(f"cell index out of range 0..{len(complex_.cells) - 1}")
    return complex_.cell_geometry(index)


def _selected_part(args):
    """3D coordinates, faces and the other JSON fields of the part one selector picks."""
    if args.vertex_figure:
        figure = polytope.vertex_figure(icosian_seed())
        return figure.coords, figure.faces, {
            "object": "snub24-vertex-figure",
            "vertex": exports.quaternion_to_json(figure.vertex),
            "neighbors": exports.points_to_json(figure.neighbors),
            "faces": [list(f) for f in figure.faces],
        }
    if args.dual_cell:
        cell = dual.dual_cell(icosian_seed())
        return cell.coords, cell.faces, {
            "object": "snub24-dual-cell",
            "vertex": exports.quaternion_to_json(cell.vertex),
            "points": exports.points_to_json(cell.vertices),
            "kites": [list(f) for f in cell.kites],
            "triangles": [list(f) for f in cell.triangles],
        }
    coords, faces = _cell_geometry(args.object, args.cell)
    return coords, faces, {"object": f"{args.object}-cell-{args.cell}",
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
            coords = exports.quaternion_coords(complex_.vertices)
            text = exports.off_text(coords, complex_.faces, args.digits)
    else:
        coords, faces, fields = _selected_part(args)
        if args.format == "off":
            text = exports.off_text(coords, faces, args.digits)
        else:
            text = exports.dumps({**fields, "coords": [[exports.field_to_json(c) for c in row]
                                                       for row in coords]})
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icosian",
        description="Exact quaternionic constructions around the snub 24-cell.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct an object and write it as JSON")
    p_build.add_argument("object", choices=BUILD_OBJECTS)
    p_build.add_argument("--out", required=True, help="output path, - for stdout")
    p_build.set_defaults(fn=cmd_build)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--out", help="also write the certificate as JSON")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="write OFF or JSON geometry")
    p_export.add_argument("object", choices=EXPORT_OBJECTS)
    p_export.add_argument("--format", choices=("off", "json"), required=True)
    p_export.add_argument("--cell", type=int, default=None, metavar="K",
                          help="one cell, projected into its own hyperplane")
    p_export.add_argument("--vertex-figure", action="store_true",
                          help="the vertex figure at the generating vertex")
    p_export.add_argument("--dual-cell", action="store_true",
                          help="the dual cell at the generating vertex")
    p_export.add_argument("--digits", type=_parse_digits, default=17,
                          help="significant digits for OFF output, "
                               f"1 to {exports.MAX_DIGITS} (default 17)")
    p_export.add_argument("--out", required=True, help="output path, - for stdout")
    p_export.set_defaults(fn=cmd_export)

    p_orbit = sub.add_parser("orbit", help="orbit of a weighted point under W(H4)")
    p_orbit.add_argument("--weights", type=_parse_weights, required=True,
                         metavar="a,b,c,d")
    p_orbit.add_argument("--decompose", action="store_true",
                         help="also decompose the orbit under W(D4):C3")
    p_orbit.add_argument("--out", help="also write the result as JSON")
    p_orbit.set_defaults(fn=cmd_orbit)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidSelector, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CertificationFailed, CoplanarityFailed) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
