from collections import Counter

import pytest

from cycliso import (
    PartialPerm,
    Presentation,
    absorption_relation_suites,
    build_Q,
    build_R,
    canonical_images,
    cardinality_formula,
    check_satisfaction,
    evaluate,
    idempotent,
    relation_count_formula,
    substitute,
)
from cycliso.dihedral import DihedralElement
from cycliso.presentations import q_to_r_substitution, r_to_q_substitution

# family sizes recounted by hand for the two smallest cases
R_FAMILIES = {
    3: {"R1": 3, "R2": 3, "R3": 3, "R4": 3, "R5": 3, "R6": 1},
    4: {"R1": 3, "R2": 4, "R3": 6, "R4": 4, "R5": 4, "R6": 2},
}
Q_FAMILIES = {
    3: {"Q1": 3, "Q2": 2, "Q3": 3, "Q4": 1},
    4: {"Q1": 3, "Q2": 2, "Q3": 6, "Q5": 2},
}


def test_relation_family_recounts():
    for n, families in R_FAMILIES.items():
        assert dict(Counter(build_R(n).labels)) == families
    for n, families in Q_FAMILIES.items():
        assert dict(Counter(build_Q(n).labels)) == families


def test_relation_counts_match_closed_forms():
    assert len(build_R(3).relations) == 16
    assert len(build_R(4).relations) == 23
    assert len(build_Q(3).relations) == 9
    assert len(build_Q(4).relations) == 13
    for n in range(3, 13):
        assert len(build_R(n).relations) == relation_count_formula("R", n)
        assert len(build_Q(n).relations) == relation_count_formula("Q", n)


def test_specific_relations_present():
    p = build_R(4)
    he2 = (p.letter("h"), p.letter("e_2"))
    e3h = (p.letter("e_3"), p.letter("h"))
    assert (he2, e3h) in p.relations

    q = build_Q(5)
    g, h, e = q.letter("g"), q.letter("h"), q.letter("e")
    assert ((g, h, e, g, h), (e,)) in q.relations
    assert ((e, e), (e,)) in q.relations


def test_q3_pairs_are_kept_verbatim():
    # distinct index pairs with the same gap produce literally equal
    # relations; the family is indexed by pairs, so duplicates remain
    q = build_Q(4)
    q3 = [r for r, lab in zip(q.relations, q.labels) if lab == "Q3"]
    assert len(q3) == 6
    assert len(set(q3)) == 3  # only the gap matters to the words


def test_canonical_images_satisfy_everything():
    for n in range(3, 11):
        for pres in (build_R(n), build_Q(n)):
            report = check_satisfaction(pres)
            assert report.ok, (pres.name, n, report.failures)
            assert report.checked == len(pres.relations)


def test_satisfaction_failure_is_reported():
    p = build_Q(3)
    broken = Presentation(
        p.name,
        p.n,
        p.alphabet,
        p.relations + (((p.letter("h"), p.letter("h")), (p.letter("g"),)),),
        p.labels + ("bogus",),
    )
    report = check_satisfaction(broken)
    assert not report.ok
    (idx, label, lhs, rhs) = report.failures[0]
    assert label == "bogus" and lhs == "h^2" and rhs == "g"


def test_mapping_assignment_and_missing_letter():
    p = build_Q(3)
    images = dict(zip(p.alphabet, canonical_images(p)))
    assert check_satisfaction(p, images).ok
    images.pop("e")
    with pytest.raises(ValueError):
        check_satisfaction(p, images)


def test_evaluate():
    p = build_Q(4)
    images = canonical_images(p)
    g = p.letter("g")
    assert evaluate((), images) == PartialPerm.identity(4)
    assert evaluate((g,) * 4, images) == PartialPerm.identity(4)
    with pytest.raises(ValueError):
        evaluate((17,), images)


def test_evaluate_words_for_conjugated_idempotents():
    # h g^(j-1) e_n h g^(j-1) evaluates to the idempotent dropping j
    p = build_Q(4)
    images = canonical_images(p)
    g, h, e = p.letter("g"), p.letter("h"), p.letter("e")
    for j in range(1, 5):
        word = (h,) + (g,) * (j - 1) + (e, h) + (g,) * (j - 1)
        assert evaluate(word, images) == idempotent(4, j)


def test_render_word():
    p = build_R(4)
    assert p.render_word(()) == "1"
    g, h = p.letter("g"), p.letter("h")
    e2 = p.letter("e_2")
    assert p.render_word((h, g, g, g, e2)) == "h g^3 e_2"


def test_json_round_trip():
    for pres in (build_R(4), build_Q(5)):
        obj = pres.to_json()
        assert obj["alphabet"][0] == "g"
        assert Presentation.from_json(obj) == pres


def test_from_json_rejects_letters_outside_the_alphabet():
    obj = build_Q(3).to_json()
    obj["relations"][0]["rhs"] = ["b"]
    with pytest.raises(ValueError, match="'b' is not in the alphabet"):
        Presentation.from_json(obj)


def test_substitutions_evaluate_consistently():
    # rewriting a word and evaluating must equal evaluating the original
    # under the substituted letters' own images
    n = 5
    p_r, p_q = build_R(n), build_Q(n)
    imgs_q = canonical_images(p_q)
    into_q = r_to_q_substitution(n)
    imgs_r_via_q = tuple(evaluate(w, imgs_q) for w in into_q)
    assert imgs_r_via_q == canonical_images(p_r)

    imgs_r = canonical_images(p_r)
    into_r = q_to_r_substitution(n)
    assert tuple(evaluate(w, imgs_r) for w in into_r) == canonical_images(p_q)

    word = (2, 0, 3)  # e_1 g e_2 over the wide alphabet
    assert evaluate(substitute(word, into_q), imgs_q) == evaluate(word, imgs_r)


@pytest.mark.parametrize("letter", [-1, 5])
def test_substitute_rejects_letters_outside_the_table(letter):
    # unchecked, -1 reads the table from the end and gives e_3's word
    with pytest.raises(ValueError, match="outside 0..4"):
        substitute((letter,), r_to_q_substitution(3))


def test_absorption_suite_shapes():
    suites = absorption_relation_suites(6)
    assert set(suites) == {"corank1", "antipodal_pair", "empty_map"}
    assert len(suites["corank1"]) == 6
    assert len(suites["antipodal_pair"]) == 3
    assert len(suites["empty_map"]) == 3 * 12
    assert "antipodal_pair" not in absorption_relation_suites(5)
    labels = [lab for lab, _, _ in suites["corank1"]]
    assert len(set(labels)) == len(labels)


def test_absorption_words_hold_under_evaluation():
    # every suite identity is in particular true of the actual maps
    for n in (4, 5):
        p = build_R(n)
        images = canonical_images(p)
        for name, instances in absorption_relation_suites(n).items():
            for label, lhs, rhs in instances:
                assert evaluate(lhs, images) == evaluate(rhs, images), (n, name, label)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation("X", 3, ("a",), (((0,), (1,)),), ("bad",))
    with pytest.raises(ValueError):
        Presentation("X", 3, ("a",), (((0,), (0,)),), ())
    with pytest.raises(ValueError):
        build_R(2)
    with pytest.raises(ValueError):
        relation_count_formula("Z", 4)


@pytest.mark.parametrize("letter", [1.0, "a"], ids=["float", "str"])
def test_letters_must_be_integers(letter):
    # the range check alone lets a float through, which the sweep would use
    # as a list index, and fails a string with TypeError
    with pytest.raises(ValueError, match="not an integer index"):
        Presentation("x", 3, ("a", "b"), (((letter,), ()),), ("",))
    assert Presentation("x", 3, ("a", "b"), (((True,), ()),), ("",)).relations
