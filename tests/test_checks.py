"""Each spec's one ``FIELDS`` table reads and writes its JSON layout: for any
valid spec, ``from_dict`` gives back what ``to_dict`` wrote, and ``to_dict``
writes every path its table names and no other."""

import json

import pytest
from hypothesis import given, strategies as st

from multipod.data import ROUTINGS, AugmentationSpec, JitterSpec
from multipod.models import (COMBINE_MODES, FAMILIES, FUSIONS, MAX_BLOCKS, MAX_CLASSES,
                             MultiPodSpec, PodBaseSpec)
from multipod.training import MAX_BATCH_SIZE, MAX_EPOCHS, TrainingSchedule

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)

BASES = st.builds(PodBaseSpec, st.sampled_from(FAMILIES), st.integers(1, MAX_BLOCKS))


@st.composite
def multipods(draw):
    pods = draw(st.integers(1, 8))
    seeds = st.lists(st.integers(0, 2**32), min_size=pods, max_size=pods, unique=True)
    return MultiPodSpec(pods, draw(BASES), draw(st.sampled_from(FUSIONS)),
                        draw(st.sampled_from(COMBINE_MODES)), draw(st.integers(2, MAX_CLASSES)),
                        draw(st.none() | seeds))


RANGE = st.tuples(st.floats(1e-6, 1.0), st.floats(1.0, 1e6))
JITTERS = st.builds(JitterSpec, RANGE, RANGE, RANGE)
AUGMENTATIONS = st.builds(
    AugmentationSpec, st.integers(0, 64), st.integers(1, 256), st.floats(0.0, 1.0),
    st.none() | JITTERS, st.lists(FINITE, min_size=3, max_size=3),
    st.lists(POSITIVE, min_size=3, max_size=3), st.sampled_from(ROUTINGS), st.integers(0, 2**64))


@st.composite
def schedules(draw):
    epochs = draw(st.integers(1, MAX_EPOCHS))
    milestones = sorted(draw(st.sets(st.integers(0, epochs - 1), max_size=4)))
    return TrainingSchedule(draw(POSITIVE), milestones, draw(st.floats(1e-6, 1.0)), epochs,
                            draw(st.integers(1, MAX_BATCH_SIZE)),
                            draw(st.floats(0.0, 1.0, exclude_max=True)), draw(st.floats(0.0, 1.0)))


def named_paths(cls):
    # every path the table names; a spec that sits inline names its own fields
    paths = set()
    for path, kind, _ in cls.FIELDS:
        if kind and kind.inline:
            paths |= named_paths(kind.inline)
        elif kind:
            paths.add(path)
    return paths


def written_paths(d, named):
    # the paths of ``d``, going into an object that no path names as a whole
    paths = set()
    for key, value in d.items():
        if key in named or not isinstance(value, dict):
            paths.add(key)
        else:
            paths |= {f"{key}.{inner}" for inner in value}
    return paths


SPECS = {"PodBaseSpec": BASES, "MultiPodSpec": multipods(), "JitterSpec": JITTERS,
         "AugmentationSpec": AUGMENTATIONS, "TrainingSchedule": schedules()}


@pytest.mark.parametrize("specs", SPECS.values(), ids=SPECS.keys())
@given(data=st.data())
def test_each_table_reads_back_what_it_writes(specs, data):
    spec = data.draw(specs)
    cls = type(spec)
    d = json.loads(json.dumps(spec.to_dict()))
    assert written_paths(d, named_paths(cls)) == named_paths(cls)
    assert cls.from_dict(d) == spec
