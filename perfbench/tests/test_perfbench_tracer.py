import types

import numpy as np

import layers
from tracer import Tracer, aggregate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_at_every_level():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.begin("outer")          # t=0
    clock.now = 1.0
    tr.begin("mid")            # t=1
    clock.now = 2.0
    tr.begin("leaf")           # t=2
    clock.now = 5.0
    tr.end()                   # leaf 3s
    clock.now = 6.0
    tr.end()                   # mid 5s, self 2s
    tr.begin("leaf")           # t=6
    clock.now = 6.5
    tr.end()                   # leaf 0.5s
    clock.now = 10.0
    tr.end()                   # outer 10s, self 10 - 5 - 0.5
    spans = {(s[2], s[3]): s for s in tr.spans}
    outer, mid = spans[("outer", 0.0)], spans[("mid", 1.0)]
    assert mid[1] == outer[0] and spans[("leaf", 2.0)][1] == mid[0]
    assert spans[("leaf", 6.0)][1] == outer[0]
    assert outer[1] == 0
    assert outer[5] == 4.5 and mid[5] == 2.0
    agg = aggregate(tr.spans)
    assert agg["leaf"] == [2, 3.5, 3.5]
    assert agg["outer"] == [1, 10.0, 4.5]
    # self times tile the root span exactly
    assert sum(s[5] for s in tr.spans) == outer[4] - outer[3]


def test_backward_closures_nest_under_backward_and_uninstall_restores():
    import multipod.gradcheck as gradcheck
    import multipod.models as models
    import multipod.tensor as T
    import multipod.training as training
    import multipod.data as data
    mp = types.SimpleNamespace(tensor=T, models=models, data=data, training=training,
                               gradcheck=gradcheck)
    originals = (T.conv2d, T.Tensor.backward, training.make_pod_inputs)
    tr = Tracer()
    layers.install(tr, mp)
    try:
        x = T.Tensor(np.ones((2, 3, 8, 8)), requires_grad=True)
        w = T.Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
        y = T.conv2d(x, w, stride=1, padding=1)
        loss = T.softmax_cross_entropy(T.global_avg_pool(y), np.array([0, 1]))
        loss.backward()
    finally:
        tr.uninstall()
    assert (T.conv2d, T.Tensor.backward, training.make_pod_inputs) == originals
    assert tr.absent == []
    by_id = {s[0]: s for s in tr.spans}
    (bwd_root,) = [s for s in tr.spans if s[2] == "tensor.backward"]
    (conv_bwd,) = [s for s in tr.spans if s[2] == "tensor.conv2d.bwd"]
    assert by_id[conv_bwd[1]] is bwd_root
    fwd = [s for s in tr.spans if s[2] == "tensor.conv2d.fwd"][0]
    _, flops, _ = fwd[6]
    assert flops == 2 * 2 * 4 * 8 * 8 * 3 * 3 * 3
    assert conv_bwd[6][1] == 2 * flops  # both x and w need a gradient


def test_missing_op_or_class_is_reported_absent_not_raised():
    import multipod.tensor as T
    tensor = types.SimpleNamespace(**{op: getattr(T, op) for op in layers.TRACED_OPS
                                      if op != "concat_linear"})
    tensor.Tensor = T.Tensor
    empty = types.SimpleNamespace()
    mp = types.SimpleNamespace(tensor=tensor, models=empty, data=empty, training=empty,
                               gradcheck=empty)
    tr = Tracer()
    layers.install(tr, mp)
    tr.uninstall()
    assert "tensor.concat_linear" in tr.absent
    assert "models.run_from" in tr.absent and "training.sgd_step" in tr.absent
    values = layers.per_layer_metrics([], 1, 1.0)
    assert values["tensor.concat_linear.fwd_s"] == (0.0, "s")
    lines = "\n".join(layers.table(values, tr.absent))
    assert "tensor.concat_linear.calls" in lines
    for line in lines.splitlines():
        if line.startswith(("tensor.concat_linear.", "models.run_from", "training.sgd_step_s")):
            assert line.endswith("absent"), line
        if line.startswith("tensor.conv2d.fwd_s"):
            assert not line.endswith("absent")
