"""Command-line surface tying the pipelines together.

Documents go to stdout, diagnostics to stderr.  Exit codes: 0 for computed
answers (negative answers included), 2 for usage errors, 3 for budget or cap
overruns, 4 for internal invariant failures.  The only environment knob is
WORKBENCH_NODE_BUDGET, which overrides the search node cap.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import docs, rings
from .bicross import (
    dual_invertibles,
    matched_pair_from_factorization,
    split_fusion_ring,
    split_irreps,
)
from .chartab import character_table, rep_g_fusion_ring
from .doubles import double_modular_data, s_equivalence, verlinde_fusion
from .equivalence import find_equivalence
from .errors import (
    ClosureTooLarge,
    ConductorTooLarge,
    DegreeTooLarge,
    NotAutomorphism,
    NotExactFactorization,
    SearchBudgetExceeded,
    TooManyClasses,
    TooManyLabels,
    WorkbenchError,
)
from .perms import (
    PermGroup,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from .solvability import solvability_verdict
from .tables import _tally

_FAMILY = re.compile(r"^([SACD])(\d+)$")


def parse_group_spec(spec, degree=None):
    """`S5`, `A4`, `C7`, `D6`, or `custom:<degree>:<cycles>|<cycles>|...`.

    With an ambient degree given, family groups embed on the first points.
    """
    m = _FAMILY.match(spec)
    if m:
        fam, n = m.group(1), int(m.group(2))
        if fam == "S":
            return symmetric_group(n, degree=degree)
        if fam == "A":
            return alternating_group(n, degree=degree)
        if fam == "C":
            return cyclic_group(n, degree=degree)
        if degree is not None and degree != n:
            raise ValueError("dihedral groups embed only at their own degree")
        return dihedral_group(n)
    if spec.startswith("custom:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"group spec {spec!r} is not custom:<degree>:<cycles>|<cycles>|...")
        _, deg, gens = parts
        try:
            deg = int(deg)
        except ValueError:
            raise ValueError(f"custom degree {parts[1]!r} is not an integer in {spec!r}") from None
        if degree is not None and degree != deg:
            raise ValueError(f"custom degree {deg} does not match ambient degree {degree}")
        perms = [Permutation.parse(s, deg) for s in gens.split("|") if s.strip()]
        return PermGroup.from_generators(deg, perms)
    raise ValueError(f"cannot parse group spec {spec!r}")


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(doc):
    sys.stdout.write(docs.dumps(doc))


def _emit_ring(ring, command):
    sys.stdout.write(docs.dumps_ring(ring, command))


def _load_kind(path, kind):
    doc = (docs.loads_ring if kind == "fusionring" else docs.loads)(_read(path))
    if doc["kind"] != kind:
        raise ValueError(f"expected a {kind} document, got {doc['kind']}")
    return doc["payload"]


def _cmd_group(args, command):
    group = parse_group_spec(args.spec)
    _emit(docs.document("group", docs.group_payload(group), command))
    return 0


def _cmd_chartab(args, command):
    group = parse_group_spec(args.spec)
    table = character_table(group)
    _emit(
        docs.document(
            "chartab",
            docs.chartab_payload(table),
            command,
            extra_provenance={"dixon_prime": table.dixon_prime},
        )
    )
    return 0


def _cmd_repring(args, command):
    group = parse_group_spec(args.spec)
    ring = rep_g_fusion_ring(character_table(group))
    _emit_ring(ring, command)
    return 0


def _cmd_pair(args, command):
    ambient = parse_group_spec(args.ambient)
    f = parse_group_spec(args.f, degree=ambient.degree)
    gamma = parse_group_spec(args.gamma, degree=ambient.degree)
    mp = matched_pair_from_factorization(ambient, f, gamma)
    _emit(docs.document("matchedpair", docs.pair_payload(mp), command))
    return 0


def _cmd_bicross(args, command):
    mp = docs.pair_from_payload(_load_kind(args.pairfile, "matchedpair"))
    if args.ring:
        ring = split_fusion_ring(mp)
        _emit_ring(ring, command)
        return 0
    payload = docs.pair_payload(mp)
    if args.dual_invertibles:
        di = dual_invertibles(mp)
        payload["dual_invertibles"] = {
            "order": di.order,
            "name": di.name,
            "center_order": di.center_order,
        }
    else:
        ws = split_irreps(mp)
        payload["irreps"] = [
            {"orbit_rep": w.orbit_rep.cycle_string(), "stab_char": w.stab_row, "dim": w.dim}
            for w in ws
        ]
        payload["type"] = _tally(w.dim for w in ws)
    _emit(docs.document("matchedpair", payload, command))
    return 0


def _cmd_double(args, command):
    group = parse_group_spec(args.spec)
    md = double_modular_data(group)
    payload = docs.modular_payload(md)
    if args.smatrix:
        payload = {"labels": payload["labels"], "s": payload["s"]}
    elif args.tmatrix:
        payload = {"labels": payload["labels"], "t": payload["t"]}
    _emit(docs.document("modulardata", payload, command))
    return 0


def _cmd_verlinde(args, command):
    md = docs.modular_from_payload(_load_kind(args.mdfile, "modulardata"))
    ring = verlinde_fusion(md)
    _emit_ring(ring, command)
    return 0


def _cmd_analyze(args, command):
    ring = docs.ring_from_payload(_load_kind(args.ringfile, "fusionring"))
    verdict = solvability_verdict(ring)
    dims = rings.fp_dims(ring)
    inv = rings.invertibles(ring)
    analysis = {
        "nilpotent": rings.is_nilpotent(ring),
        "cyclically_nilpotent": rings.is_cyclically_nilpotent(ring),
        "invertibles": {"order": inv.order, "name": inv.name},
        "fpdim": dims.total,
    }
    if dims.exact:
        analysis["type"] = [list(p) for p in rings.type_signature(ring)]
    _emit(docs.document("verdict", docs.verdict_payload(verdict, analysis), command))
    return 0


def _cmd_equiv(args, command):
    r1 = docs.ring_from_payload(_load_kind(args.ring1, "fusionring"))
    r2 = docs.ring_from_payload(_load_kind(args.ring2, "fusionring"))
    witness = find_equivalence(r1, r2)
    if witness is None:
        _emit(docs.document("witness", docs.witness_payload(False), command))
    else:
        pairs = [
            [r1.labels[i], r2.labels[j]] for i, j in enumerate(witness.bijection)
        ]
        _emit(docs.document("witness", docs.witness_payload(True, pairs), command))
    return 0


def _cmd_sequiv(args, command):
    m1 = docs.modular_from_payload(_load_kind(args.md1, "modulardata"))
    m2 = docs.modular_from_payload(_load_kind(args.md2, "modulardata"))
    f = s_equivalence(m1, m2)
    if f is None:
        _emit(docs.document("witness", docs.witness_payload(False), command))
    else:
        pairs = [
            [m1.labels[i].name(), m2.labels[j].name()] for i, j in enumerate(f)
        ]
        _emit(docs.document("witness", docs.witness_payload(True, pairs), command))
    return 0


def _cmd_paper_suite(args, command):
    from .suite import run_suite

    results = run_suite()
    return 0 if all(r.passed for r in results) else 4


_PARSER = None  # built by the first build_parser() call


def build_parser():
    """The command-line parser, built once: parsing leaves no state in it,
    so every main() call shares it."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="fusionrings",
        description="Exact workbench for fusion rings and modular data from finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="construct a named or custom permutation group")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("chartab", help="exact character table")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_chartab)

    p = sub.add_parser("repring", help="fusion ring of the representations of a group")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_repring)

    p = sub.add_parser("pair", help="matched pair from an exact factorization G = F*Gamma")
    p.add_argument("ambient")
    p.add_argument("f")
    p.add_argument("gamma")
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("bicross", help="split bicrossed product invariants of a pair")
    p.add_argument("pairfile")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--ring", action="store_true", help="full fusion ring")
    g.add_argument("--type", action="store_true", help="irreducible summary (default)")
    g.add_argument("--dual-invertibles", action="store_true")
    p.set_defaults(fn=_cmd_bicross)

    p = sub.add_parser("double", help="modular data of the double of a group")
    p.add_argument("spec")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--smatrix", action="store_true")
    g.add_argument("--tmatrix", action="store_true")
    p.set_defaults(fn=_cmd_double)

    p = sub.add_parser("verlinde", help="fusion ring recovered from an S-matrix")
    p.add_argument("mdfile")
    p.set_defaults(fn=_cmd_verlinde)

    p = sub.add_parser("analyze", help="gradings, nilpotency and solvability verdict")
    p.add_argument("ringfile")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("equiv", help="search for a fusion-rules-preserving bijection")
    p.add_argument("ring1")
    p.add_argument("ring2")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("sequiv", help="search for an S-matrix-preserving bijection")
    p.add_argument("md1")
    p.add_argument("md2")
    p.set_defaults(fn=_cmd_sequiv)

    p = sub.add_parser("paper-suite", help="run the bundled acceptance computations")
    p.set_defaults(fn=_cmd_paper_suite)

    _PARSER = parser
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = "fusionrings " + " ".join(argv)
    try:
        return args.fn(args, command)
    except (SearchBudgetExceeded, ClosureTooLarge, DegreeTooLarge, TooManyClasses, TooManyLabels) as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ConductorTooLarge, NotExactFactorization, NotAutomorphism) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, WorkbenchError) as exc:
        print(f"error: invariant: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
