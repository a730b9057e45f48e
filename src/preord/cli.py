"""Command-line surface.

Exit codes: 0 for success or a verified property, 1 for a property or
verdict failure (counterexample or diagnosis on stdout), 2 for usage,
parse, validation or budget errors and for files that cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .category import DEFAULT_BUDGET, is_trivial_object
from .decompose import core_quotient
from .enumeration import KINDS, class_representatives, count_objects, enumerate_objects
from .errors import NotShortExactError, PreordError, ValidationError
from .exactness import Seq, is_prekernel, is_precokernel, is_short_preexact, \
    precokernel, prekernel
from .io import export_dot, load_morphism, load_object, save_object
from .pretorsion import EQUIVALENCES, PARTIAL_ORDERS, pretorsion_verify
from .relations import Partition
from .stable import classify_short_exact, stable_eq, stable_iso_witness
from .topology import components, is_indecomposable, is_minimal

__all__ = ["main"]


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _obj(path: str):
    return load_object(_read(path))


def _blocks_str(blocks) -> str:
    return " ".join("{" + ",".join(str(x) for x in blk) + "}" for blk in blocks)


def _cmd_check(args) -> int:
    a = _obj(args.object)
    print(f"ok: preorder on {a.n} elements")
    print(f"partial order: {str(a.rel.is_antisymmetric()).lower()}")
    print(f"equivalence: {str(a.rel.is_symmetric()).lower()}")
    print(f"trivial: {str(is_trivial_object(a)).lower()}")
    print(f"indecomposable: {str(is_indecomposable(a)).lower()}")
    print(f"minimal: {str(is_minimal(a)).lower()}")
    return 0


def _cmd_decompose(args) -> int:
    a = _obj(args.object)
    part, q, proj = core_quotient(a)
    print(f"torsion blocks: {_blocks_str(part.blocks)}")
    print(f"quotient poset pairs: {q.rel.pair_list}")
    print(f"projection: {list(proj.map)}")
    return 0


def _cmd_components(args) -> int:
    a = _obj(args.object)
    part = components(a)
    print(f"components: {_blocks_str(part.blocks)}")
    print(f"count: {part.size}")
    return 0


def _load_morph(dom_path, cod_path, map_path):
    dom = _obj(dom_path)
    cod = _obj(cod_path)
    return load_morphism(_read(map_path), dom, cod)


def _cmd_prekernel(args) -> int:
    f = _load_morph(args.dom, args.cod, args.map)
    k = prekernel(f)
    print(f"prekernel domain: {save_object(k.dom)}")
    print(f"map: {list(k.map)}")
    return 0


def _cmd_precokernel(args) -> int:
    f = _load_morph(args.dom, args.cod, args.map)
    c = precokernel(f)
    print(f"precokernel codomain: {save_object(c.cod)}")
    print(f"projection: {list(c.map)}")
    return 0


def _load_seq(args) -> Seq:
    x, y, z = _obj(args.x), _obj(args.y), _obj(args.z)
    f = load_morphism(_read(args.f), x, y)
    g = load_morphism(_read(args.g), y, z)
    return Seq(f, g)


def _cmd_sequence_check(args) -> int:
    seq = _load_seq(args)
    ok = is_short_preexact(seq)
    print(f"short preexact: {str(ok).lower()}")
    if ok:
        return 0
    print(f"first leg is a prekernel of the second: "
          f"{str(is_prekernel(seq.f, seq.g)).lower()}")
    print(f"second leg is a precokernel of the first: "
          f"{str(is_precokernel(seq.g, seq.f)).lower()}")
    return 1


def _cmd_stable_eq(args) -> int:
    dom, cod = _obj(args.dom), _obj(args.cod)
    f = load_morphism(_read(args.f), dom, cod)
    g = load_morphism(_read(args.g), dom, cod)
    ok = stable_eq(f, g)
    print(f"stable equal: {str(ok).lower()}")
    return 0 if ok else 1


def _cmd_stable_iso(args) -> int:
    a, b = _obj(args.a), _obj(args.b)
    witness = stable_iso_witness(a, b)
    if witness is None:
        print("stably isomorphic: false")
        return 1
    fwd, back = witness
    print("stably isomorphic: true")
    print(f"forward: {list(fwd.map)}")
    print(f"backward: {list(back.map)}")
    return 0


def _cmd_classify_exact(args) -> int:
    if args.max_n < 1:
        raise ValidationError(f"--max-n must be at least 1, got {args.max_n}")
    seq = _load_seq(args)
    probes = class_representatives(args.max_n)
    try:
        sim, left, right = classify_short_exact(seq.f, seq.g, probes, args.budget)
    except NotShortExactError as e:
        print(f"not short exact: {e}")
        return 1
    # the image equivalence of the prekernel is an equivalence by construction
    part = Partition._of_equivalence(sim.bits)
    print(f"kernel equivalence blocks: {_blocks_str(part.blocks)}")
    print(f"left witness: {list(left.map)}")
    print(f"right witness: {list(right.map)}")
    return 0


def _cmd_verify_pretorsion(args) -> int:
    report = pretorsion_verify(EQUIVALENCES, PARTIAL_ORDERS, args.max_n, args.budget)
    print(report)
    return 0 if report.ok else 1


def _cmd_enumerate(args) -> int:
    if not args.count_only:
        for a in enumerate_objects(args.n, args.kind):
            print(save_object(a))
    print(f"count: {count_objects(args.n, args.kind)}")
    return 0


def _cmd_dot(args) -> int:
    a = _obj(args.object)
    text = export_dot(a, hasse=args.hasse, color_components=args.color_components)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preord",
        description="Finite preordered sets: decomposition, exact sequences, "
                    "the stable category, and pretorsion checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an object file and summarize it")
    p.add_argument("object")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose",
                       help="symmetric-core blocks and the quotient poset")
    p.add_argument("object")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("components", help="connected components")
    p.add_argument("object")
    p.set_defaults(func=_cmd_components)

    for name, func, help_ in (
        ("prekernel", _cmd_prekernel, "canonical prekernel of a morphism"),
        ("precokernel", _cmd_precokernel, "canonical precokernel of a morphism"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("dom")
        p.add_argument("cod")
        p.add_argument("map")
        p.set_defaults(func=func)

    p = sub.add_parser("sequence-check",
                       help="is a pair of morphisms short preexact")
    for arg in ("x", "y", "z", "f", "g"):
        p.add_argument(arg)
    p.set_defaults(func=_cmd_sequence_check)

    p = sub.add_parser("stable-eq", help="stable equality of parallel morphisms")
    for arg in ("dom", "cod", "f", "g"):
        p.add_argument(arg)
    p.set_defaults(func=_cmd_stable_eq)

    p = sub.add_parser("stable-iso",
                       help="stable isomorphism of two objects, with witnesses")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_stable_iso)

    p = sub.add_parser("classify-exact",
                       help="match a stable short exact sequence to quotient form")
    for arg in ("x", "y", "z", "f", "g"):
        p.add_argument(arg)
    p.add_argument("--max-n", type=int, default=2,
                   help="probe objects up to this size (default 2)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_classify_exact)

    p = sub.add_parser("verify-pretorsion",
                       help="check both pretorsion axioms for "
                            "(equivalences, partial orders)")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify_pretorsion)

    p = sub.add_parser("enumerate", help="list all labeled objects of a kind")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("object")
    p.add_argument("--hasse", action="store_true",
                   help="covering relation of the quotient poset")
    p.add_argument("--color-components", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (PreordError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
