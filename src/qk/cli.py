"""qk: inspect finite quantales stored as .quant files.

    qk check FILE                      certify the axioms
    qk ideals FILE                     list every ideal
    qk classify FILE --below L         classify the principal ideal of L
    qk classify FILE --ideal A,B       ... or the ideal generated by labels
    qk spectrum FILE                   primes, maximals, nilradical, jacobson
    qk radical FILE --below L          radical of an ideal, choice of algorithm
    qk decompose FILE --below L        primary or irreducible decomposition
    qk verify FILE [--suite S]         re-prove the law catalogue
    qk gen KIND[:ARG] [-o FILE]        emit a built-in family member
    qk hom check HOMFILE               validate a homomorphism file

Output is line oriented: key<TAB>value pairs, records separated by blank
lines (--format table for an aligned view; gen, which emits .quant text,
has no --format).  qk.records alone writes the format, for verify's report
as for every other command.  Nothing is timestamped, so identical inputs
give identical bytes.  Each command returns its text and exit status, and
main writes the text once.  Exit status: 0 success,
1 domain failure (failed axioms, failed law, invalid hom, no
decomposition: any QuantaleError but a QuantFileError), 2 usage error,
malformed file (QuantFileError, ValueError) or a file that cannot be read
or written (OSError).  Every error is one line "qk: MESSAGE" on stderr.

The sampling seed for large-carrier verification comes from --seed, else
the QK_SEED environment variable, else a fixed default.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import cache

from . import classify as cl
from . import decompose as dc
from . import ideals as il
from .core import FiniteQuantale, check_axioms
from .errors import QuantaleError, QuantFileError
from .generators import generate_from_spec
from .quantfile import load_hom, load_quant, write_quant
from .records import Records
from .verify import SUITE_ORDER, run_suite


def _target_ideal(q: FiniteQuantale, args) -> il.Ideal:
    if args.below is not None:
        return il.principal(q, q.index(args.below))
    labels = [s for s in args.ideal.split(",") if s]
    mask = 0
    for lbl in labels:
        mask |= 1 << q.index(lbl)
    return il.generated(q, mask)


def _add_target(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--below", metavar="LABEL", help="principal ideal of this element")
    g.add_argument(
        "--ideal", metavar="LABELS", help="ideal generated by comma-separated labels"
    )


def _cmd_check(args) -> tuple[str, int]:
    q = load_quant(args.file)
    rep = check_axioms(q)
    out = Records()
    out.put("instance", q.name)
    out.put("elements", q.n)
    out.put("lattice", rep.lattice_ok)
    out.put("associative", rep.assoc_ok)
    out.put("commutative", rep.comm_ok)
    out.put("distributive", rep.distrib_ok)
    out.put("unital", rep.identity_ok)
    out.put("status", "pass" if rep.ok else "fail")
    for tag, wit in rep.counterexamples:
        out.put(f"counterexample.{tag}", [q.elements[i] for i in wit])
    return out.render(args.format), 0 if rep.ok else 1


def _cmd_ideals(args) -> tuple[str, int]:
    q = load_quant(args.file)
    ideals = il.enumerate_ideals(q)
    out = Records()
    out.put("instance", q.name)
    out.put("count", len(ideals))
    for i in ideals:
        out.sep()
        out.put("ideal", i.name)
        out.put("apex", q.elements[i.apex])
        out.put("members", i.labels())
        out.put("proper", i.proper)
    return out.render(args.format), 0


def _cmd_classify(args) -> tuple[str, int]:
    q = load_quant(args.file)
    i = _target_ideal(q, args)
    c = cl.classification(i)
    out = Records()
    out.put("instance", q.name)
    out.put("ideal", i.name)
    out.put("members", i.labels())
    for f in fields(c):
        if isinstance(flag := getattr(c, f.name), bool):
            out.put(f.name, flag)
    out.put("radical", c.radical.name)
    for kind, wit in sorted(c.witnesses.items()):
        out.put(f"witness.{kind}", [q.elements[x] for x in wit])
    return out.render(args.format), 0


def _cmd_spectrum(args) -> tuple[str, int]:
    q = load_quant(args.file)
    primes = cl.spectrum(q)
    minimal = set(cl._extremal(primes, smallest=True))
    out = Records()
    out.put("instance", q.name)
    out.put("count", len(primes))
    for p in primes:
        out.sep()
        out.put("prime", p.name)
        out.put("members", p.labels())
        out.put("minimal", p in minimal)
    out.sep()
    # maximal ideals, and so the Jacobson radical and locality, need bottom != top
    nondegenerate = q.bottom != q.top
    if nondegenerate:
        out.put("maximal_ideals", [m.name for m in cl.maximal_ideals(q)])
    out.put("nilradical", cl.nilradical(q).name)
    if nondegenerate:
        out.put("jacobson", cl.jacobson(q).name)
        local, at = cl.is_local(q)
        out.put("local", local)
        if local:
            out.put("local_at", at.name)
    return out.render(args.format), 0


def _cmd_radical(args) -> tuple[str, int]:
    q = load_quant(args.file)
    i = _target_ideal(q, args)
    out = Records()
    out.put("instance", q.name)
    out.put("ideal", i.name)
    algs = tuple(cl.RADICAL_ROUTES) if args.algorithm == "all" else (args.algorithm,)
    rads = {a: cl.radical(i, a) for a in algs}
    for a in algs:
        out.put(f"radical.{a}", rads[a].name)
    first = rads[algs[0]]
    out.put("members", first.labels())
    if len(algs) > 1:
        out.put("agree", all(r == first for r in rads.values()))
    return out.render(args.format), 0


def _cmd_decompose(args) -> tuple[str, int]:
    q = load_quant(args.file)
    i = _target_ideal(q, args)
    out = Records()
    out.put("instance", q.name)
    out.put("ideal", i.name)
    out.put("kind", args.kind)
    if args.kind == "irreducible":
        d = dc.irreducible_decomposition(i)
        out.put("components", [c.name for c in d.components])
        return out.render(args.format), 0
    rep = dc.uniqueness_report(i)
    d = rep.decomposition
    out.put("components", [c.name for c in d.components])
    out.put("minimal", True)  # primary_decomposition returns a minimal one
    for c, r in zip(d.components, d.radicals):
        out.sep()
        out.put("component", c.name)
        out.put("radical", r.name)
    out.sep()
    out.put("associated", [p.name for p in rep.associated_primes])
    out.put("isolated", [p.name for p in rep.isolated])
    out.put("embedded", [p.name for p in rep.embedded])
    out.put("isolated_components_unique", rep.isolated_components_match)
    return out.render(args.format), 0


def _cmd_verify(args) -> tuple[str, int]:
    q = load_quant(args.file)
    hom = None
    if args.hom is not None:
        hom = load_hom(args.hom)
        if not hom.source.same_structure(q):
            raise QuantaleError(
                f"hom source {hom.source.name!r} does not match instance {q.name!r}"
            )
        q = hom.source
    rep = run_suite(q, args.suite, hom=hom, seed=args.seed)
    return rep.format(args.format, timing=args.timing), 0 if rep.ok else 1


def _cmd_gen(args) -> tuple[str, int]:
    text = write_quant(generate_from_spec(args.spec))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        text = ""
    return text, 0


def _cmd_hom(args) -> tuple[str, int]:
    h = load_hom(args.homfile)
    rep = h.check()
    out = Records()
    out.put("hom", h.name)
    out.put("source", h.source.name)
    out.put("target", h.target.name)
    out.put("valid", rep.ok)
    if not rep.ok:
        out.put("violates", rep.condition)
        if rep.witness:
            out.put("witness", [h.source.elements[x] for x in rep.witness])
    return out.render(args.format), 0 if rep.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each parse_args call starts from a fresh namespace of defaults."""
    parser = argparse.ArgumentParser(
        prog="qk", description="finite quantale toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("records", "table"), default="records",
        help="output style (default: records)",
    )

    p = sub.add_parser("check", parents=[fmt], help="certify the axioms of a file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("ideals", parents=[fmt], help="list every ideal")
    p.add_argument("file")
    p.set_defaults(run=_cmd_ideals)

    p = sub.add_parser("classify", parents=[fmt], help="classify one ideal")
    p.add_argument("file")
    _add_target(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("spectrum", parents=[fmt], help="prime structure overview")
    p.add_argument("file")
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("radical", parents=[fmt], help="radical of an ideal")
    p.add_argument("file")
    _add_target(p)
    routes = tuple(cl.RADICAL_ROUTES)
    p.add_argument("--algorithm", choices=routes + ("all",), default=routes[0])
    p.set_defaults(run=_cmd_radical)

    p = sub.add_parser("decompose", parents=[fmt], help="decompose an ideal")
    p.add_argument("file")
    _add_target(p)
    p.add_argument("--kind", choices=("primary", "irreducible"), default="primary")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("verify", parents=[fmt], help="re-prove the law catalogue")
    p.add_argument("file")
    p.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    p.add_argument("--hom", metavar="HOMFILE", help="homomorphism for the cep suite")
    p.add_argument("--seed", type=int, default=None, help="sampling seed override")
    p.add_argument("--timing", action="store_true", help="include elapsed times")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("gen", help="emit a built-in instance")
    p.add_argument(
        "spec", metavar="KIND[:ARG]",
        help="e.g. powerset:3, lukasiewicz:5, m3, lowersets:chain4, opens:sierpinski",
    )
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("hom", help="operations on hom files")
    hsub = p.add_subparsers(dest="hom_command", required=True)
    hc = hsub.add_parser("check", parents=[fmt], help="validate a hom file")
    hc.add_argument("homfile")
    hc.set_defaults(run=_cmd_hom)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        text, code = args.run(args)
        sys.stdout.write(text)
        return code
    except (QuantaleError, OSError, ValueError) as e:
        print(f"qk: {e}", file=sys.stderr)
        return 2 if isinstance(e, (QuantFileError, OSError, ValueError)) else 1


if __name__ == "__main__":
    sys.exit(main())
