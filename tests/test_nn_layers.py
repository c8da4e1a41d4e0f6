"""Unit tests for the numpy NN framework: gradients, shapes, optimisers, losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional
from repro.nn.functional import (
    accuracy,
    col2im,
    conv_windows,
    im2col,
    log_softmax,
    one_hot,
    softmax,
)
from repro.nn.stacked import StackedConv2d


def numerical_input_gradient_check(module, x, rng, tolerance=1e-4, probes=4):
    """Compare analytic input gradients against central finite differences."""
    output = module(x)
    upstream = rng.normal(size=output.shape)
    analytic = module.backward(upstream)
    eps = 1e-5
    for _ in range(probes):
        index = tuple(int(rng.integers(0, s)) for s in x.shape)
        plus = x.copy()
        plus[index] += eps
        minus = x.copy()
        minus[index] -= eps
        numeric = (float(np.sum(module(plus) * upstream)) - float(np.sum(module(minus) * upstream))) / (2 * eps)
        assert abs(analytic[index] - numeric) < tolerance * (1 + abs(numeric))


LAYER_CASES = [
    ("linear", lambda: nn.Linear(6, 4, rng=1), (3, 6)),
    ("linear-3d", lambda: nn.Linear(6, 4, rng=1), (2, 5, 6)),
    ("conv", lambda: nn.Conv2d(3, 4, 3, padding=1, rng=1), (2, 3, 8, 8)),
    ("conv-stride", lambda: nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=1), (2, 3, 8, 8)),
    ("conv-depthwise", lambda: nn.Conv2d(4, 4, 3, padding=1, groups=4, rng=1), (2, 4, 6, 6)),
    ("conv-grouped", lambda: nn.Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=1), (2, 4, 8, 8)),
    ("conv-k1", lambda: nn.Conv2d(6, 4, 1, rng=1), (2, 6, 8, 8)),
    ("conv-k1-stride", lambda: nn.Conv2d(6, 4, 1, stride=2, rng=1), (2, 6, 9, 9)),
    ("conv-k5-pad2", lambda: nn.Conv2d(2, 3, 5, padding=2, rng=1), (2, 2, 10, 10)),
    ("conv-k3-nopad", lambda: nn.Conv2d(4, 6, 3, rng=1), (3, 4, 7, 7)),
    ("bn2d", lambda: nn.BatchNorm2d(3), (4, 3, 5, 5)),
    ("bn1d", lambda: nn.BatchNorm1d(6), (8, 6)),
    ("layernorm", lambda: nn.LayerNorm(8), (2, 5, 8)),
    ("relu", lambda: nn.ReLU(), (3, 4, 5)),
    ("leaky", lambda: nn.LeakyReLU(0.1), (3, 4, 5)),
    ("gelu", lambda: nn.GELU(), (3, 4, 5)),
    ("sigmoid", lambda: nn.Sigmoid(), (3, 4)),
    ("tanh", lambda: nn.Tanh(), (3, 4)),
    ("maxpool", lambda: nn.MaxPool2d(2), (2, 3, 8, 8)),
    ("avgpool", lambda: nn.AvgPool2d(2), (2, 3, 8, 8)),
    ("gap", lambda: nn.GlobalAvgPool2d(), (2, 3, 8, 8)),
    ("flatten", lambda: nn.Flatten(), (2, 3, 4, 4)),
    ("attention", lambda: nn.MultiHeadSelfAttention(8, 2, rng=1), (2, 5, 8)),
    ("patchembed", lambda: nn.PatchEmbedding(8, 4, 3, 8, rng=1), (2, 3, 8, 8)),
]


@pytest.mark.parametrize("name,layer_factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_gradient_matches_finite_differences(name, layer_factory, shape, rng):
    layer = layer_factory()
    x = rng.normal(size=shape)
    numerical_input_gradient_check(layer, x, rng)


@pytest.mark.parametrize("name,layer_factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_backward_shape_matches_input(name, layer_factory, shape, rng):
    layer = layer_factory()
    x = rng.normal(size=shape)
    out = layer(x)
    grad_in = layer.backward(rng.normal(size=out.shape))
    assert grad_in.shape == x.shape


def test_linear_parameter_gradients_accumulate(rng):
    layer = nn.Linear(4, 3, rng=0)
    x = rng.normal(size=(5, 4))
    layer.zero_grad()
    out = layer(x)
    layer.backward(np.ones_like(out))
    first = layer.weight.grad.copy()
    layer(x)
    layer.backward(np.ones_like(out))
    assert np.allclose(layer.weight.grad, 2 * first)


def test_conv_rejects_bad_group_configuration():
    with pytest.raises(ValueError):
        nn.Conv2d(3, 4, 3, groups=2)


def test_batchnorm_updates_running_statistics(rng):
    bn = nn.BatchNorm2d(3)
    x = rng.normal(2.0, 3.0, size=(16, 3, 4, 4))
    bn.train()
    bn(x)
    assert not np.allclose(bn.get_buffer("running_mean"), 0.0)
    bn.eval()
    out_eval = bn(x)
    assert out_eval.shape == x.shape


def test_dropout_identity_in_eval_mode(rng):
    dropout = nn.Dropout(0.5, rng=0)
    x = rng.normal(size=(10, 10))
    dropout.eval()
    assert np.allclose(dropout(x), x)
    dropout.train()
    dropped = dropout(x)
    assert not np.allclose(dropped, x)


def test_sequential_runs_layers_in_order(rng):
    model = nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    x = rng.normal(size=(3, 4))
    out = model(x)
    assert out.shape == (3, 2)
    grad = model.backward(np.ones_like(out))
    assert grad.shape == x.shape
    assert len(model) == 3


def test_module_freeze_blocks_optimizer_updates(rng):
    layer = nn.Linear(4, 2, rng=0)
    layer.freeze()
    optimizer = nn.SGD(layer.parameters(), lr=0.1)
    x = rng.normal(size=(3, 4))
    out = layer(x)
    before = layer.weight.data.copy()
    layer.backward(np.ones_like(out))
    optimizer.step()
    assert np.allclose(layer.weight.data, before)


def test_state_dict_round_trip(tmp_path, rng):
    model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=0), nn.BatchNorm2d(4), nn.ReLU())
    x = rng.normal(size=(2, 3, 6, 6))
    model.train()
    model(x)
    path = tmp_path / "model.npz"
    nn.save_state_dict(model, path)
    other = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=5), nn.BatchNorm2d(4), nn.ReLU())
    nn.load_state_dict(other, path)
    model.eval()
    other.eval()
    assert np.allclose(model(x), other(x))


def test_load_state_dict_reports_missing_keys():
    model = nn.Linear(3, 2, rng=0)
    with pytest.raises(KeyError):
        model.load_state_dict({"weight": np.zeros((2, 3))})


@pytest.mark.parametrize("optimizer_name", ["sgd", "adam"])
def test_optimizers_reduce_quadratic_loss(optimizer_name, rng):
    param = nn.Parameter(rng.normal(size=(5,)))
    optimizer = (
        nn.SGD([param], lr=0.1, momentum=0.5)
        if optimizer_name == "sgd"
        else nn.Adam([param], lr=0.1)
    )
    initial = float(np.sum(param.data**2))
    for _ in range(50):
        optimizer.zero_grad()
        param.accumulate_grad(2 * param.data)
        optimizer.step()
    assert float(np.sum(param.data**2)) < initial * 0.1


def test_step_lr_and_cosine_lr_decay():
    param = nn.Parameter(np.zeros(3))
    optimizer = nn.SGD([param], lr=1.0)
    scheduler = nn.StepLR(optimizer, step_size=2, gamma=0.1)
    for _ in range(4):
        scheduler.step()
    assert optimizer.lr == pytest.approx(0.01)
    optimizer2 = nn.Adam([param], lr=1.0)
    cosine = nn.CosineLR(optimizer2, total_epochs=10)
    for _ in range(10):
        cosine.step()
    assert optimizer2.lr == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_manual_computation(rng):
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 1])
    criterion = nn.CrossEntropyLoss()
    loss = criterion(logits, labels)
    manual = -np.mean(log_softmax(logits)[np.arange(4), labels])
    assert loss == pytest.approx(manual)
    grad = criterion.backward()
    assert grad.shape == logits.shape
    # gradient rows sum to zero for hard labels
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_gradient_matches_finite_differences(rng):
    logits = rng.normal(size=(3, 4))
    labels = np.array([1, 0, 3])
    criterion = nn.CrossEntropyLoss(label_smoothing=0.1)
    criterion(logits, labels)
    grad = criterion.backward()
    eps = 1e-6
    for index in [(0, 1), (2, 3), (1, 0)]:
        plus = logits.copy()
        plus[index] += eps
        minus = logits.copy()
        minus[index] -= eps
        numeric = (criterion(plus, labels) - criterion(minus, labels)) / (2 * eps)
        assert grad[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


def test_mse_loss_and_gradient(rng):
    predictions = rng.normal(size=(4, 3))
    targets = rng.normal(size=(4, 3))
    criterion = nn.MSELoss()
    loss = criterion(predictions, targets)
    assert loss == pytest.approx(float(np.mean((predictions - targets) ** 2)))
    grad = criterion.backward()
    assert grad.shape == predictions.shape


def test_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(6, 9)) * 20
    probabilities = softmax(logits)
    assert np.allclose(probabilities.sum(axis=1), 1.0)
    assert np.all(probabilities >= 0)


def test_one_hot_and_accuracy():
    labels = np.array([0, 2, 1])
    encoded = one_hot(labels, 3)
    assert encoded.shape == (3, 3)
    assert np.array_equal(np.argmax(encoded, axis=1), labels)
    logits = np.array([[3.0, 0, 0], [0, 0, 5.0], [0, 1.0, 0]])
    assert accuracy(logits, labels) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)


def test_im2col_col2im_are_adjoint(rng):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    x = rng.normal(size=(2, 3, 6, 6))
    cols, out_h, out_w = im2col(x, kernel=3, stride=1, padding=1)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel=3, stride=1, padding=1)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_im2col_matches_reference_loop(rng):
    """The cached-index gather unfold equals a per-offset slice loop, any geometry."""
    for kernel, stride, padding in ((3, 1, 1), (2, 2, 0), (3, 2, 1), (4, 3, 2)):
        x = rng.normal(size=(2, 3, 9, 9))
        cols, out_h, out_w = im2col(x, kernel=kernel, stride=stride, padding=padding)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        reference = np.empty((2, 3, kernel, kernel, out_h, out_w))
        for ky in range(kernel):
            for kx in range(kernel):
                reference[:, :, ky, kx] = padded[
                    :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
                ]
        reference = reference.transpose(0, 4, 5, 1, 2, 3).reshape(cols.shape)
        np.testing.assert_array_equal(cols, reference)


def _strided_view_im2col(x, kernel, stride, padding):
    """The unfold as a copy of conv_windows' transposed view: the gather's oracle."""
    n, c = x.shape[:2]
    windows, out_h, out_w = conv_windows(x, kernel, stride, padding)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel * kernel)


def _unfold_inputs(rng, n, c, h, w, dtype):
    """One batch in each layout the conv and pooling layers hand to im2col."""
    nhwc = rng.normal(size=(n, h, w, c)).astype(dtype)
    wide = rng.normal(size=(n, 2 * c, h, w)).astype(dtype)
    return {
        "contiguous": rng.normal(size=(n, c, h, w)).astype(dtype),
        # every conv after the stem receives an NCHW view of NHWC memory
        "nhwc_memory": nhwc.transpose(0, 3, 1, 2),
        # grouped convs unfold a channel slice of their input
        "channel_slice": wide[:, c:],
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_im2col_gather_is_byte_exact_to_the_strided_view(dtype):
    sweep = np.random.default_rng(1407)
    for kernel in (1, 2, 3, 4):
        for stride in (1, 2, 3):
            for padding in (0, 1, 2):
                c = int(sweep.choice([1, 3, 8, 16]))
                h, w = (int(v) for v in sweep.choice(np.arange(kernel, 11), 2, replace=False))
                n = int(sweep.integers(1, 4))
                for layout, x in _unfold_inputs(sweep, n, c, h, w, dtype).items():
                    before = x.copy()
                    cols, out_h, out_w = im2col(x, kernel, stride, padding)
                    expected = _strided_view_im2col(x, kernel, stride, padding)
                    case = (layout, c, h, w, kernel, stride, padding)
                    assert cols.shape == expected.shape == (n * out_h * out_w, c * kernel**2), case
                    assert cols.dtype == dtype, case
                    assert cols.flags["C_CONTIGUOUS"], case
                    assert cols.tobytes() == expected.tobytes(), case
                    assert x.tobytes() == before.tobytes(), case


def test_im2col_index_cache_is_read_only_and_bounded(rng, monkeypatch):
    functional._cached_unfold_index.cache_clear()
    x = rng.normal(size=(2, 3, 7, 9))
    im2col(x, 3, 1, 1)
    im2col(x, 3, 1, 1)
    info = functional._cached_unfold_index.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert info.maxsize == functional._UNFOLD_INDEX_CACHE
    index = functional._cached_unfold_index(3, 7, 9, 3, 1, 1)
    assert index.dtype == np.intp and not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0
    # a geometry whose index is over the per-entry byte bound is built per
    # call and never enters the cache, yet unfolds the same columns
    monkeypatch.setattr(functional, "_UNFOLD_INDEX_MAX_BYTES", index.nbytes - 1)
    cols, _, _ = im2col(x, 3, 1, 1)
    cols_big, _, _ = im2col(x, 3, 1, 2)
    assert functional._cached_unfold_index.cache_info().currsize == 1
    assert cols.tobytes() == _strided_view_im2col(x, 3, 1, 1).tobytes()
    assert cols_big.tobytes() == _strided_view_im2col(x, 3, 1, 2).tobytes()


def _batchnorm_reference(bn, x):
    """BatchNorm as four out-of-place temporaries: (out, x_hat, std_inv)."""
    x2 = bn._to_2d(x)
    if bn.training:
        mean, var = x2.mean(axis=0), x2.var(axis=0)
    else:
        mean, var = bn.get_buffer("running_mean"), bn.get_buffer("running_var")
    std_inv = 1.0 / np.sqrt(var + bn.eps)
    x_hat = (x2 - mean) * std_inv
    out2 = bn.gamma.data * x_hat + bn.beta.data
    return bn._from_2d(out2, x.shape), x_hat, std_inv


#: (layer, input maker) per (BatchNorm kind, input layout); conv outputs,
#: which BatchNorm2d normalises, are NCHW views of NHWC memory
BATCHNORM_INPUTS = {
    ("1d", "contiguous"): (nn.BatchNorm1d, lambda rng: rng.normal(size=(12, 6))),
    ("1d", "transposed"): (nn.BatchNorm1d, lambda rng: rng.normal(size=(6, 12)).T),
    ("2d", "contiguous"): (nn.BatchNorm2d, lambda rng: rng.normal(size=(3, 6, 5, 4))),
    ("2d", "nhwc_memory"): (
        nn.BatchNorm2d,
        lambda rng: rng.normal(size=(3, 5, 4, 6)).transpose(0, 3, 1, 2),
    ),
}


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", list(BATCHNORM_INPUTS), ids="-".join)
def test_batchnorm_in_place_matches_out_of_place(rng, case, dtype, training):
    cls, make_input = BATCHNORM_INPUTS[case]
    bn = cls(6)
    # non-trivial statistics and affine terms, so an aliased buffer shows
    bn.gamma.data = rng.normal(1.0, 0.5, size=6)
    bn.beta.data = rng.normal(0.0, 0.5, size=6)
    bn.set_buffer("running_mean", rng.normal(size=6))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, size=6))
    bn.astype(dtype)
    (bn.train if training else bn.eval)()
    x = make_input(rng).astype(dtype)
    before = x.copy()
    expected, x_hat, std_inv = _batchnorm_reference(bn, x)
    out = bn(x)
    assert out.dtype == expected.dtype == dtype
    assert out.shape == expected.shape and out.strides == expected.strides
    assert out.tobytes() == expected.tobytes()
    assert bn._x_hat.dtype == x_hat.dtype and bn._x_hat.tobytes() == x_hat.tobytes()
    assert x.tobytes() == before.tobytes()
    if training:
        return
    # eval backward (white-box prompting) reads the stored x_hat
    grad = rng.normal(size=out.shape).astype(dtype)
    g2 = bn._to_2d(grad)
    grad_input = bn.backward(grad)
    expected_input = bn._from_2d(g2 * bn.gamma.data * std_inv, x.shape)
    assert grad_input.dtype == expected_input.dtype
    assert grad_input.tobytes() == expected_input.tobytes()
    assert bn.gamma.grad.tobytes() == np.sum(g2 * x_hat, axis=0).astype(dtype).tobytes()
    assert bn.beta.grad.tobytes() == np.sum(g2, axis=0).astype(dtype).tobytes()


def test_im2col_preserves_dtype(rng):
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    cols, _, _ = im2col(x, kernel=3, stride=1, padding=1)
    assert cols.dtype == np.float32


def test_pooling_backward_keeps_forward_dtype(rng):
    for pool in (nn.MaxPool2d(2), nn.AvgPool2d(2)):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = pool(x)
        assert out.dtype == np.float32
        grad = pool.backward(np.ones_like(out, dtype=np.float64))
        assert grad.dtype == np.float32


DTYPE_CONV_CASES = [
    ("ungrouped", dict(in_channels=4, out_channels=4, kernel_size=3, padding=1), (2, 4, 8, 8)),
    ("grouped", dict(in_channels=4, out_channels=4, kernel_size=3, padding=1, groups=2), (2, 4, 8, 8)),
    ("k1", dict(in_channels=6, out_channels=4, kernel_size=1), (2, 6, 8, 8)),
    ("k1-stride", dict(in_channels=6, out_channels=4, kernel_size=1, stride=2), (2, 6, 9, 9)),
    ("k5-pad2", dict(in_channels=2, out_channels=3, kernel_size=5, padding=2), (2, 2, 10, 10)),
    ("k3-nopad", dict(in_channels=4, out_channels=6, kernel_size=3), (3, 4, 7, 7)),
]


@pytest.mark.parametrize(
    "conv_kwargs,shape", [c[1:] for c in DTYPE_CONV_CASES], ids=[c[0] for c in DTYPE_CONV_CASES]
)
def test_conv_backward_keeps_forward_dtype(rng, conv_kwargs, shape):
    conv = nn.Conv2d(rng=1, **conv_kwargs)
    x = rng.normal(size=shape).astype(np.float32)
    out = conv(x)
    grad = conv.backward(np.ones_like(out, dtype=np.float64))
    assert grad.dtype == np.float32
    assert grad.shape == x.shape


def test_sigmoid_forward_keeps_forward_dtype(rng):
    sigmoid = nn.Sigmoid()
    x = rng.normal(size=(3, 4)).astype(np.float32)
    out = sigmoid(x)
    assert out.dtype == np.float32
    assert sigmoid.backward(np.ones_like(out)).dtype == np.float32
    # integer inputs still promote so the exponentials stay exact
    assert sigmoid(np.arange(-2, 3).reshape(1, 5)).dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_grouped_conv_matches_ungrouped_halves(rng, dtype):
    """The groups > 1 loop agrees with independent groups==1 fast-path convs."""
    grouped = nn.Conv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=1)
    halves = [nn.Conv2d(2, 3, 3, stride=2, padding=1, rng=2), nn.Conv2d(2, 3, 3, stride=2, padding=1, rng=3)]
    for g, half in enumerate(halves):
        half.weight.copy_(grouped.weight.data[g * 3 : (g + 1) * 3])
        half.bias.copy_(grouped.bias.data[g * 3 : (g + 1) * 3])
    x = rng.normal(size=(2, 4, 8, 8)).astype(dtype)
    out = grouped(x)
    expected = np.concatenate([half(x[:, g * 2 : (g + 1) * 2]) for g, half in enumerate(halves)], axis=1)
    np.testing.assert_array_equal(out, expected)

    upstream = rng.normal(size=out.shape)
    grad = grouped.backward(upstream)
    expected_grad = np.concatenate(
        [half.backward(upstream[:, g * 3 : (g + 1) * 3]) for g, half in enumerate(halves)],
        axis=1,
    )
    np.testing.assert_allclose(grad, expected_grad, rtol=0.0, atol=1e-12)
    for g, half in enumerate(halves):
        np.testing.assert_allclose(
            grouped.weight.grad[g * 3 : (g + 1) * 3], half.weight.grad, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(
            grouped.bias.grad[g * 3 : (g + 1) * 3], half.bias.grad, rtol=0.0, atol=1e-12
        )


def test_conv_eval_mode_drops_im2col_scratch_but_backward_still_works(rng):
    """Inference must not retain training-sized im2col buffers; the white-box
    prompting path (backward through a frozen model in eval mode) re-unfolds
    lazily and must produce the same gradients as a train-mode pass."""
    conv = nn.Conv2d(3, 4, 3, padding=1, rng=1)
    x = rng.normal(size=(2, 3, 8, 8))

    conv.train()
    out_train = conv(x)
    assert conv._cols is not None
    upstream = rng.normal(size=out_train.shape)
    grad_train = conv.backward(upstream)
    weight_grad_train = conv.weight.grad.copy()
    conv.zero_grad()

    conv.eval()
    out_eval = conv(x)
    assert conv._cols is None  # the k^2-inflated scratch is gone ...
    np.testing.assert_array_equal(out_train, out_eval)
    grad_eval = conv.backward(upstream)  # ... but backward re-unfolds lazily
    np.testing.assert_array_equal(grad_train, grad_eval)
    np.testing.assert_array_equal(weight_grad_train, conv.weight.grad)

    # an eval backward arms the cache (white-box prompting pattern: one unfold
    # per step instead of two) and a backward-free forward disarms it again
    conv(x)
    assert conv._cols is not None
    conv.backward(upstream)
    conv(x)
    assert conv._cols is not None
    conv(x)
    assert conv._cols is None


@pytest.mark.parametrize(
    "make_layer",
    [
        lambda: nn.Conv2d(3, 4, 3, padding=1, rng=1),
        lambda: StackedConv2d.from_modules(
            [nn.Conv2d(3, 4, 3, padding=1, rng=seed) for seed in (1, 2)]
        ),
    ],
    ids=["conv", "stacked"],
)
def test_conv_backward_before_forward_raises(make_layer):
    layer = make_layer()
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones((2, 4, 8, 8)))


def test_clip_grad_norm_scales_gradients(rng):
    params = [nn.Parameter(rng.normal(size=(4,))) for _ in range(3)]
    for param in params:
        param.accumulate_grad(rng.normal(size=(4,)) * 100)
    from repro.nn.functional import clip_grad_norm

    clip_grad_norm(params, max_norm=1.0)
    total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    assert total <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# col2im blocking and precision tiers
# ---------------------------------------------------------------------------


def test_col2im_blocking_is_bitwise_stable(rng):
    """Image blocking re-tiles only the scatter-add, so any block size must
    fold to bitwise-identical gradients (the float64 contract depends on it)."""
    import repro.nn.functional as F

    x_shape = (7, 3, 8, 8)
    cols, out_h, out_w = im2col(rng.normal(size=x_shape), kernel=3, stride=1, padding=1)
    grad_cols = rng.normal(size=cols.shape)
    results = []
    original = F._COL2IM_BLOCK_BYTES
    try:
        for block_bytes in (1, 1 << 12, original, 1 << 30):
            F._COL2IM_BLOCK_BYTES = block_bytes
            results.append(col2im(grad_cols, x_shape, kernel=3, stride=1, padding=1))
    finally:
        F._COL2IM_BLOCK_BYTES = original
    for other in results[1:]:
        np.testing.assert_array_equal(results[0], other)


def test_functional_ops_preserve_float32(rng):
    x32 = rng.normal(size=(4, 5)).astype(np.float32)
    assert softmax(x32).dtype == np.float32
    assert log_softmax(x32).dtype == np.float32
    from repro.nn.functional import sigmoid

    assert sigmoid(x32).dtype == np.float32
    assert one_hot(np.array([0, 2]), 3, dtype=np.float32).dtype == np.float32
    # the defaults are unchanged: float64 in, float64 out; ints promote
    assert softmax(x32.astype(np.float64)).dtype == np.float64
    assert one_hot(np.array([0, 2]), 3).dtype == np.float64


def test_accuracy_empty_batch_and_shape_contract():
    for dtype in (np.float64, np.float32):
        assert accuracy(np.empty((0, 5), dtype=dtype), np.empty((0,), dtype=np.int64)) == 0.0
    with pytest.raises(ValueError, match="2-D"):
        accuracy(np.zeros((3,)), np.zeros((3,), dtype=np.int64))
    with pytest.raises(ValueError, match="batch size"):
        accuracy(np.zeros((3, 2)), np.zeros((4,), dtype=np.int64))


def test_module_astype_casts_params_buffers_and_optimizer_follows(rng):
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=1), nn.BatchNorm2d(4), nn.ReLU(), nn.Flatten(),
    )
    model.astype(np.float32)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert {b.dtype for _, b in model.named_buffers()} == {np.dtype(np.float32)}
    # optimiser scratch allocates from the parameter dtype
    optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    out = model(x)
    model.backward(np.ones_like(out))
    optimizer.step()
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    with pytest.raises(ValueError, match="unsupported parameter dtype"):
        model.astype(np.int32)


def test_cross_entropy_targets_follow_logits_dtype(rng):
    criterion = nn.CrossEntropyLoss()
    logits32 = rng.normal(size=(4, 3)).astype(np.float32)
    labels = np.array([0, 1, 2, 1])
    criterion(logits32, labels)
    assert criterion.backward().dtype == np.float32
    criterion(logits32.astype(np.float64), labels)
    assert criterion.backward().dtype == np.float64
