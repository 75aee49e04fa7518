"""Projectives read off the engine's templates, and maps out of them by the
prefix-tree walk, against the slot-by-slot references in `naive.py`; the
templates themselves against the sort-based reference there, on each
engine and its opposite.  A map
out of a projective evaluates a slot only when it is read, so its columns
are checked before any block is built, as well as its blocks."""

import functools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from quiverext import Representation, build_engine, parse_algebra
from quiverext.fields import PrimeField
from quiverext.linalg import Matrix
from quiverext.modules import (Projective, projective_cover, projective_module,
                               simple_module)
from quiverext.quiver import wadd, wsub, wzero
from quiverext.resolution import minimal_resolution

from conftest import (EXTERIOR3_F3, EXTERIOR3_UNGRADED, FIXTURE_NAMES, MIXED, NAK4, POLY_CORNER,
                      RATIONAL, fixture_text, random_homogeneous_vectors)
from naive import check_templates, naive_map_from_generator_images, naive_projective

ALGEBRAS = FIXTURE_NAMES + ["poly_corner", "rational"]
FIELDS = ["Q", "F3"]


@functools.cache
def engine_over(name, field):
    if name == "poly_corner":
        text = POLY_CORNER
    elif name == "rational":
        # 2/3 has no value in F3, so over F3 the coefficient is 1/2 = 2
        text = RATIONAL % ("2/3" if field == "Q" else "1/2")
    elif name == "exterior3_ungraded":
        text = EXTERIOR3_UNGRADED % "Q"
    else:
        text = fixture_text(name)
    pres = parse_algebra(text)
    if field != "Q":
        pres = pres.with_field(PrimeField(3))
    return build_engine(pres)


def assert_matches_reference(proj, eng, summands):
    slots, gen_pos, generators, dims, action = naive_projective(eng, summands)
    assert list(proj.slots.items()) == list(slots.items())
    assert proj.gen_pos == gen_pos
    assert list(proj.generators.items()) == list(generators.items())
    assert list(proj.rep.dims.items()) == list(dims.items())
    assert list(proj.rep.action) == list(action)
    assert all(proj.rep.action[key] == m for key, m in action.items())


@st.composite
def cases(draw):
    name = draw(st.sampled_from(ALGEBRAS))
    field = draw(st.sampled_from(FIELDS))
    eng = engine_over(name, field)
    shift = st.tuples(*[st.integers(-2, 2)] * eng.group_rank)
    summand = st.tuples(st.sampled_from(eng.quiver.vertices), shift)
    target_summands = draw(st.lists(summand, min_size=1, max_size=3))
    if draw(st.booleans()):
        _, _, _, dims, action = naive_projective(eng, target_summands)
        target = Representation(eng, dims, action, check=False)
    else:
        target = simple_module(eng, *target_summands[0])
    grade = draw(st.just(wzero(eng.group_rank)) | shift)
    # mostly summands whose generator lands on a slice of the target
    onto_target = st.sampled_from([(v, wadd(h, grade)) for v, h in target.dims])
    summands = draw(st.lists(onto_target | onto_target | summand, min_size=1, max_size=5))
    images = []
    for v, g in summands:
        n = target.dims.get((v, wsub(g, grade)), 0)
        kind = draw(st.sampled_from(["random", "random", "zero", "empty"]))
        if kind == "empty" or not n:
            images.append([])
        elif kind == "zero":
            images.append([eng.field.zero] * n)
        else:
            images.append([eng.field.of(draw(st.sampled_from([1, -1, 2, 0])))
                           for _ in range(n)])
    return eng, summands, target, grade, images


@settings(max_examples=120, derandomize=True, deadline=None)
@given(cases())
def test_projective_and_its_maps_match_slot_by_slot_reference(case):
    eng, summands, target, grade, images = case
    proj = Projective(eng, summands)
    assert_matches_reference(proj, eng, summands)
    phi = proj.map_from_generator_images(target, images, grade=grade)
    want = naive_map_from_generator_images(proj, target, images, grade)
    assert list(phi.blocks) == list(want)
    assert all(phi.blocks[key] == b for key, b in want.items())
    phi._verify()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FIXTURE_NAMES + ["exterior3_ungraded"])
def test_maps_evaluate_columns_on_demand(name, field, monkeypatch):
    eng = engine_over(name, field)
    zero = wzero(eng.group_rank)
    applied = []
    apply = Matrix.apply

    def counted(self, vec):
        applied.append(1)
        return apply(self, vec)

    monkeypatch.setattr(Matrix, "apply", counted)
    target = Projective(eng, [(v, zero) for v in eng.quiver.vertices]).rep
    rng = random.Random(zlib.crc32(("%s/%s" % (name, field)).encode()))
    grades = {zero, (1,) * eng.group_rank}
    for grade in sorted(grades):
        picked = random_homogeneous_vectors(target, rng, 4)
        # one more summand whose image is zero
        summands = [(v, wadd(g, grade)) for v, g, _ in picked] + [picked[0][:2]]
        images = [vec for _, _, vec in picked] + [[]]
        proj = Projective(eng, summands)
        want = naive_map_from_generator_images(proj, target, images, grade)
        phi = proj.map_from_generator_images(target, images, grade=grade)
        del applied[:]
        # a generator's column is its image, read with no product
        for idx, pos in enumerate(proj.gen_pos):
            tkey, col = phi.column(*pos)
            assert tkey == (summands[idx][0], wsub(summands[idx][1], grade))
            assert col == (images[idx] or [eng.field.zero] * target.dims.get(tkey, 0))
        assert not applied
        # every other column, before any block is built, with each tree node
        # evaluated at most once
        for key, slots in proj.slots.items():
            tkey = (key[0], wsub(key[1], grade))
            for i in range(len(slots)):
                col = phi.column(key, i)[1]
                assert col == (want[key].col(i) if key in want
                               else [eng.field.zero] * target.dims.get(tkey, 0))
        nodes = sum(len(proj._templates[idx].tree) - 1 for idx in range(len(summands)))
        assert len(applied) <= nodes
        # the blocks reuse the evaluated nodes, and are built once
        evaluated = len(applied)
        blocks = phi.blocks
        assert len(applied) == evaluated
        assert list(blocks) == list(want)
        assert all(blocks[key] == b for key, b in want.items())
        again = phi.blocks
        assert again is blocks and all(again[key] is b for key, b in blocks.items())
        phi._verify()
        # blocks read first give the same columns
        fresh = proj.map_from_generator_images(target, images, grade=grade)
        assert list(fresh.blocks) == list(want)
        for key, slots in proj.slots.items():
            for i in range(len(slots)):
                assert fresh.column(key, i) == phi.column(key, i)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_cover_of_single_summand_leaves_it_and_its_template_intact(name, field):
    eng = engine_over(name, field)
    one = (1,) * eng.group_rank
    for v in eng.quiver.vertices:
        proj = projective_module(eng, v, one)
        template = eng.projective_template(v)
        template_action = {(a, d): b for (_, d), out in template.blocks_from.items()
                           for a, _, b in out}
        # a single summand shares the template's blocks and slot lists,
        # re-keyed by its shift
        for (a, d), b in template_action.items():
            assert proj.rep.action[(a, tuple(x + 1 for x in d))] is b
        for (w, d), s in template.slots.items():
            assert proj.slots[(w, tuple(x + 1 for x in d))] is s
        cover = projective_cover(eng, proj.rep)
        assert cover.kernel.is_zero() and cover.epi.is_iso()
        minimal_resolution(eng, simple_module(eng, v), 3)
        assert_matches_reference(proj, eng, [(v, one)])
        assert_matches_reference(Projective(eng, [(v, one)]), eng, [(v, one)])
        fresh = Projective(eng, [(v, wzero(eng.group_rank))])
        assert_matches_reference(fresh, eng, [(v, wzero(eng.group_rank))])
        assert list(template.slots.items()) == list(fresh.slots.items())
        assert template_action == fresh.rep.action


TEMPLATE_TEXTS = {**{name: fixture_text(name) for name in FIXTURE_NAMES},
                  "poly_corner": POLY_CORNER, "exterior3_f3": EXTERIOR3_F3, "nak4": NAK4,
                  "mixed": MIXED}


def engine_and_opposite(text):
    eng = build_engine(parse_algebra(text))
    return eng, eng.opposite_engine


def test_prefix_tree_holds_every_first_applied_part():
    for eng in (e for name in FIXTURE_NAMES for e in engine_and_opposite(fixture_text(name))):
        for v in eng.quiver.vertices:
            t = eng.projective_template(v)
            tree = t.tree
            assert tree[0][0] is None and tree[0][3] == ((v, wzero(eng.group_rank)), 0)
            paths = {p.arrows for p in eng.basis_paths_from(v)}
            seen = [()]
            for parent, arrow, _, slot in tree[1:]:
                assert parent < len(seen)
                seen.append((arrow,) + seen[parent])
                assert (slot is not None) == (seen[-1] in paths)
            assert paths <= set(seen)
            assert set(seen) == {p[i:] for p in paths for i in range(len(p) + 1)}
            assert t.node_of == {arrows: i for i, arrows in enumerate(seen)}


@pytest.mark.parametrize("name", sorted(TEMPLATE_TEXTS))
def test_templates_match_the_sort_based_reference(name):
    for eng in engine_and_opposite(TEMPLATE_TEXTS[name]):
        check_templates(eng)


@pytest.mark.parametrize("name", sorted(TEMPLATE_TEXTS))
def test_no_template_is_built_during_set_up(name):
    # set-up is the engine and its opposite; templates are built in the job
    assert [e._templates for e in engine_and_opposite(TEMPLATE_TEXTS[name])] == [{}, {}]
