"""Differential gate for the numerics (McKeeman, "Differential Testing for
Software", 1998): the program's forward, scoring, prediction and backward
paths against perfbench/reference.py, an independent forward pass written
from the model's equations, on drawn cells, widths, heads, lengths, weight
scales and URL text. The reference is loaded read-only from its file."""

import importlib.util
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import phishdefense as pd
from phishdefense.model import score_batch

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference.py"))
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

VOCAB = pd.default_vocab()
WIDTHS = st.integers(1, 6)
# the head shapes (1,), (2,), (k, 1), (k, 2) and (k1, k2, 1)
HEADS = st.one_of(st.sampled_from([(1,), (2,)]),
                  st.tuples(WIDTHS, st.sampled_from([1, 2])),
                  st.tuples(WIDTHS, WIDTHS, st.just(1)))
# any text: empty, non-ASCII, and longer than any drawn max_len
URLS = st.lists(st.text(max_size=50), min_size=1, max_size=6)


@st.composite
def models(draw, scales):
    """A model of drawn shape whose every weight is multiplied by a drawn
    scale: at 30 the gates and the head saturate."""
    cfg = pd.ModelConfig(cell_kind=draw(st.sampled_from(["gru", "lstm"])), embed_dim=draw(WIDTHS),
                         hidden_dim=draw(WIDTHS), dense_dims=draw(HEADS),
                         max_len=draw(st.integers(1, 40)), seed=draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(scales))
    return pd.ModelGraph(cfg, {k: v * scale for k, v in pd.build_model(cfg).params.items()})


def encoded(m, urls):
    codes = [pd.encode_url(u, VOCAB, m.config.max_len) for u in urls]
    return np.stack([c.ids for c in codes]), np.array([c.true_len for c in codes])


@settings(max_examples=600, deadline=None)
@given(m=models([0.1, 1.0, 30.0]), urls=URLS)
def test_every_inference_path_matches_the_reference(m, urls):
    expected = reference.probabilities(m.config, {**m.params, **m.cell.to_dict("cell.")}, urls)
    ids, lens = encoded(m, urls)
    single = np.array([pd.predict(m, u, VOCAB)[1] for u in urls])
    for probs in (pd.forward_batch(m, ids, lens)[0], score_batch(m, ids, lens), single):
        assert reference.prob_mismatches(probs, expected) == 0, (probs, expected)
    # predict projects a URL's own characters, score_batch folds the whole
    # vocabulary: a one-row product runs another BLAS kernel than a longer
    # one, so the two agree bit for bit from two scored characters on
    for url, score, n in zip(urls, single, lens):
        if n >= 2:
            assert score == score_batch(m, *encoded(m, [url]))[0], url


@settings(max_examples=100, deadline=None)
@given(m=models([0.1, 1.0, 30.0]))
def test_a_saved_model_loads_as_its_float32_narrowing(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.pdm")
        pd.save_model(m, path)
        loaded = pd.load_model(path)
    assert replace(loaded.config, seed=m.config.seed) == m.config  # PDM1 keeps no seed
    assert loaded.params.keys() == m.params.keys()
    for name, value in m.params.items():
        assert loaded.params[name].dtype == np.float64
        np.testing.assert_array_equal(loaded.params[name], value.astype(np.float32).astype(np.float64), name)


# scale 30 is left out: where the loss saturates, the round-off of a central
# difference at reference.FD_EPS exceeds the fixed reference.FD_ATOL
@settings(max_examples=400, deadline=None)
@given(m=models([0.1, 1.0]),
       records=st.lists(st.tuples(st.text(max_size=50), st.integers(0, 1)), min_size=1, max_size=6)
       .filter(lambda records: any(url for url, _ in records)),
       seed=st.integers(0, 2**32 - 1))
def test_backward_matches_central_differences(m, records, seed):
    checked, bad = reference.gradient_mismatches(pd, m, records, seed)
    assert checked == reference.FD_COORDS_PER_TENSOR * len(m.params) and bad == 0, (checked, bad)
