"""Axiom schema tests: catalogues, instantiation, and validity spot checks."""

import random

import pytest

from dacosta import C, CILA, DomainError, MBCCL, And, Imp, Or, Var, parse, powseq
from dacosta.axioms import (
    Schema,
    instance_corpus,
    instantiate,
    random_instance,
    schema_by_name,
    schemata,
)
from dacosta.tableau import prove
from dacosta.truthtable import decide

P, Q, R = Var("p"), Var("q"), Var("r")
CANON = {"A": P, "B": Q, "C": R}

LFI_NAMES = [
    "Ax1", "Ax2", "Ax3", "Ax4", "Ax5", "Ax6", "Ax7", "Ax8", "Ax9",
    "Dummett", "bc1", "cl",
]


def canonical(schema):
    return instantiate(schema, {m: CANON[m] for m in schema.metavars})


class TestCatalogue:
    def test_mbccl_names(self):
        assert [s.name for s in schemata(MBCCL)] == LFI_NAMES

    def test_cila_names(self):
        assert [s.name for s in schemata(CILA)] == LFI_NAMES + [
            "ci", "cf", "ca_and", "ca_or", "ca_imp",
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cn_names(self, n):
        want = [f"Ax{i}" for i in range(1, 11)]
        want += [f"bc_{n}", f"dc_{n}", f"P_{n}", "Dummett"]
        assert [s.name for s in schemata(C(n))] == want

    def test_schemas_are_stamped_with_their_logic(self):
        for lg in (C(1), C(3), MBCCL, CILA):
            for s in schemata(lg):
                assert s.logic == lg

    def test_templates_use_metavariable_atoms(self):
        s = schema_by_name(C(1), "Ax1")
        assert s.template == parse("A -> B -> A")
        assert s.metavars == ("A", "B")

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="cl"):
            schema_by_name(C(1), "cl")
        with pytest.raises(KeyError, match="bc_1"):
            schema_by_name(MBCCL, "bc_1")


class TestInstantiation:
    @pytest.mark.parametrize(
        "logic,name,text",
        [
            (C(1), "Ax1", "p -> q -> p"),
            (C(1), "Ax2", "(p -> q -> r) -> (p -> q) -> p -> r"),
            (C(1), "Ax8", "(p -> r) -> (q -> r) -> p | q -> r"),
            (C(1), "Ax9", "p | ~p"),
            (C(1), "Ax10", "~~p -> p"),
            (C(1), "Dummett", "p | (p -> q)"),
            (C(1), "bc_1", "~(p & ~p) -> p -> ~p -> q"),
            (
                C(2),
                "dc_2",
                "~(p & ~p) & ~(~(p & ~p) & ~~(p & ~p)) -> (q -> p) -> (q -> ~p) -> ~q",
            ),
            (MBCCL, "bc1", "@p -> p -> ~p -> q"),
            (MBCCL, "cl", "~(p & ~p) -> @p"),
            (CILA, "ci", "~@p -> p & ~p"),
            (CILA, "cf", "~~p -> p"),
            (CILA, "ca_and", "@p & @q -> @(p & q)"),
            (CILA, "ca_or", "@p & @q -> @(p | q)"),
            (CILA, "ca_imp", "@p & @q -> @(p -> q)"),
        ],
    )
    def test_canonical_instances(self, logic, name, text):
        assert canonical(schema_by_name(logic, name)).text == text

    def test_consistency_propagation_structure(self):
        # P_n: joint n-consistency of the parts marks every compound.
        s = schema_by_name(C(2), "P_2")
        want = Imp(
            And(powseq(P, 2), powseq(Q, 2)),
            And(
                And(powseq(And(P, Q), 2), powseq(Or(P, Q), 2)),
                powseq(Imp(P, Q), 2),
            ),
        )
        assert canonical(s) == want

    def test_bounded_contradiction_structure(self):
        from dacosta import Neg

        for n in (1, 2, 3):
            s = schema_by_name(C(n), f"bc_{n}")
            want = Imp(powseq(P, n), Imp(P, Imp(Neg(P), Q)))
            assert canonical(s) == want

    def test_substitution_is_structural(self):
        s = schema_by_name(C(1), "Ax1")
        inst = instantiate(s, {"A": parse("q -> q"), "B": Q})
        assert inst == Imp(parse("q -> q"), Imp(Q, parse("q -> q")))
        assert inst.text == "(q -> q) -> q -> q -> q"

    def test_missing_metavariable_rejected(self):
        s = schema_by_name(C(1), "bc_1")
        with pytest.raises(DomainError, match="metavariable"):
            instantiate(s, {"A": P})

    def test_leftmost_missing_metavariable_named(self):
        s = Schema("T", ("A", "B", "C"), Imp(Or(Var("A"), Var("C")), Var("B")), C(1))
        with pytest.raises(DomainError, match="'C'"):
            instantiate(s, {"A": P})

    def test_deep_template(self):
        from dacosta import Neg

        template, want = Var("A"), Imp(P, Q)
        for _ in range(5000):
            template, want = Neg(template), Neg(want)
        s = Schema("deep", ("A",), template, C(1))
        assert instantiate(s, {"A": Imp(P, Q)}) is want


class TestRandomInstances:
    def test_deterministic_under_seed(self):
        s = schema_by_name(C(2), "dc_2")
        a = random_instance(s, random.Random(7), connectives=3)
        b = random_instance(s, random.Random(7), connectives=3)
        assert a == b

    def test_instances_vary(self):
        s = schema_by_name(C(1), "Ax1")
        rng = random.Random(0)
        drawn = {random_instance(s, rng).text for _ in range(10)}
        assert len(drawn) > 1

    def test_corpus_covers_every_schema(self):
        corpus = instance_corpus(C(1), 2, rng=random.Random(3))
        assert len(corpus) == 2 * len(schemata(C(1)))
        assert {s.name for s, _ in corpus} == {s.name for s in schemata(C(1))}
        for s, f in corpus:
            assert isinstance(s, Schema)
            assert parse(f.text, logic=s.logic) == f

    def test_corpus_respects_signature(self):
        for s, f in instance_corpus(C(2), 2, rng=random.Random(4)):
            assert "@" not in f.text
        seen_circ = any(
            "@" in f.text
            for _, f in instance_corpus(CILA, 4, rng=random.Random(4))
        )
        assert seen_circ


class TestValidity:
    @pytest.mark.parametrize("lg", [C(1), C(2), MBCCL, CILA], ids=lambda l: l.name)
    def test_canonical_instances_are_valid(self, lg):
        for s in schemata(lg):
            res = decide(lg, canonical(s))
            assert res.entailed, f"{lg.name}:{s.name}"

    def test_tableaux_agree_on_marker_axioms(self):
        assert prove(MBCCL, canonical(schema_by_name(MBCCL, "cl"))).proved
        assert prove(CILA, canonical(schema_by_name(CILA, "ci"))).proved
        assert prove(C(2), canonical(schema_by_name(C(2), "bc_2"))).proved
        assert prove(C(2), canonical(schema_by_name(C(2), "dc_2"))).proved

    def test_markers_do_not_leak_downward(self):
        # bc_1's antecedent is too weak for C2: one consistency layer
        # does not bound a depth-2 contradiction.
        weak = instantiate(
            schema_by_name(C(1), "bc_1"), {"A": P, "B": Q}
        )
        assert not decide(C(2), weak).entailed

    def test_random_instances_stay_valid(self):
        for lg in (C(1), MBCCL, CILA):
            for s, f in instance_corpus(lg, 2, rng=random.Random(11), connectives=2):
                assert decide(lg, f).entailed, f"{lg.name}:{s.name}:{f.text}"
