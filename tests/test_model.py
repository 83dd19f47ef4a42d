import json

import numpy as np
import pytest

from gobmd.model import (
    GenConfig,
    InstanceFormatError,
    RealInstance,
    bit_error_rate,
    generate_instance,
    generate_scene,
    load_instance,
    quantize_one_bit,
    real_expand_channel,
    save_instance,
    stack_complex,
)


def test_real_expand_1x1():
    out = real_expand_channel(np.array([[1.0 + 1.0j]]))
    assert np.array_equal(out, np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_real_expand_identity():
    out = real_expand_channel(np.eye(2, dtype=complex))
    assert np.array_equal(out, np.eye(4))


def test_real_expand_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(20):
        H = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = stack_complex(H @ z)
        rhs = real_expand_channel(H) @ stack_complex(z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_quantize_examples():
    assert np.array_equal(quantize_one_bit([0.3, -0.2, 0.0]), [1.0, -1.0, 1.0])
    assert np.array_equal(quantize_one_bit([-5.0, -0.1]), [-1.0, -1.0])


def test_quantize_odd_symmetry():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(100)
    y = y[y != 0.0]
    assert np.array_equal(quantize_one_bit(-y), -quantize_one_bit(y))


def test_quantize_idempotent_on_signs():
    rng = np.random.default_rng(2)
    r = quantize_one_bit(rng.standard_normal(50))
    assert np.array_equal(quantize_one_bit(r), r)


def test_generate_dimensions_and_sigma():
    inst = generate_instance(GenConfig(18, 4, 10.0, 7))
    assert inst.n == 36 and inst.k == 8
    assert inst.sigma == pytest.approx(0.6324555320336759, abs=1e-15)


def test_generate_deterministic():
    a = generate_instance(GenConfig(10, 3, 5.0, 123))
    b = generate_instance(GenConfig(10, 3, 5.0, 123))
    assert np.array_equal(a.H, b.H) and np.array_equal(a.r, b.r)
    assert a.sigma == b.sigma and np.array_equal(a.x_true, b.x_true)


def test_trial_substreams_differ_and_repeat():
    cfg = GenConfig(6, 2, 10.0, 9)
    a0 = generate_instance(cfg, trial=0)
    a1 = generate_instance(cfg, trial=1)
    b0 = generate_instance(cfg, trial=0)
    assert not np.array_equal(a0.H, a1.H)
    assert np.array_equal(a0.H, b0.H) and np.array_equal(a0.r, b0.r)


def test_sigma_monotone_in_snr():
    sigmas = [generate_instance(GenConfig(4, 2, s, 1)).sigma for s in (0.0, 5.0, 10.0, 20.0)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_generated_r_matches_model():
    cfg = GenConfig(7, 3, 8.0, 55)
    scene = generate_scene(cfg)
    inst = generate_instance(cfg)
    H = real_expand_channel(scene.H_c)
    v = stack_complex(scene.v_c)
    assert np.array_equal(inst.r, quantize_one_bit(H @ inst.x_true + v))


def test_block_structure():
    inst = generate_instance(GenConfig(5, 3, 10.0, 3))
    nt, ku = 5, 3
    H = inst.H
    assert np.array_equal(H[:nt, :ku], H[nt:, ku:])
    assert np.array_equal(H[:nt, ku:], -H[nt:, :ku])


def test_qpsk_entries():
    scene = generate_scene(GenConfig(4, 4, 10.0, 11))
    assert np.all(np.abs(scene.x_c.real) == 1.0) and np.all(np.abs(scene.x_c.imag) == 1.0)
    assert np.all(np.abs(scene.r_c.real) == 1.0) and np.all(np.abs(scene.r_c.imag) == 1.0)


def test_snr_calibration():
    # expected-energy calibration: signal and noise energies averaged
    # separately, since the mean of per-trial ratios is biased by N/(N-1)
    snr_lin = 10.0
    sig = noise = 0.0
    trials = 10_000
    for t in range(trials):
        scene = generate_scene(GenConfig(18, 4, 10.0, 2024), trial=t)
        sig += float(np.sum(np.abs(scene.H_c @ scene.x_c) ** 2))
        noise += float(np.sum(np.abs(scene.v_c) ** 2))
    assert sig / noise == pytest.approx(snr_lin, rel=0.02)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(2, 3, 10.0, 1)  # fewer antennas than users
    # linear SNR 0, infinite, NaN, or so small that the noise overflows
    for snr in (-4000.0, -np.inf, np.inf, np.nan, 1e6, -3200.0):
        with pytest.raises(ValueError, match="snr_db must give a finite, positive linear SNR"):
            GenConfig(4, 2, snr, 1)
    with pytest.raises(ValueError):
        GenConfig(0, 0, 10.0, 1)


def test_bit_error_rate():
    a = np.array([1.0, -1.0, 1.0, 1.0])
    assert bit_error_rate(a, a) == 0.0
    assert bit_error_rate(a, -a) == 1.0
    c = np.ones(8)
    d = c.copy()
    d[[2, 5]] = -1.0
    assert bit_error_rate(c, d) == 0.25
    with pytest.raises(ValueError):
        bit_error_rate(a, a[:3])


def test_instance_validation():
    H = np.eye(3)
    with pytest.raises(ValueError):
        RealInstance(H=H, r=np.array([1.0, 0.0, 1.0]), sigma=1.0)
    with pytest.raises(ValueError):
        RealInstance(H=H, r=np.ones(3), sigma=0.0)
    for sigma in (np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            RealInstance(H=H, r=np.ones(3), sigma=sigma)
    with pytest.raises(ValueError):
        RealInstance(H=H, r=np.ones(3), sigma=1.0, x_true=np.ones(2))
    cases = (
        (dict(H=np.ones(3), r=np.ones(3)), "H must be a 2-D matrix"),
        # N = 0 would make the pool capacity N * 2^K zero
        (dict(H=np.zeros((0, 2)), r=np.zeros(0)), "H must have at least one row"),
        (dict(H=H, r=np.ones(2)), "r length must match"),
        (dict(H=np.full((3, 3), np.nan), r=np.ones(3)), "H must be finite"),
        (dict(H=H, r=np.ones(3), x_true=np.array([1.0, 0.0, -1.0])), "x_true entries must be -1 or \\+1"),
    )
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            RealInstance(sigma=1.0, **kwargs)


def test_instance_roundtrip_bit_exact(tmp_path):
    inst = generate_instance(GenConfig(6, 3, 7.3, 99))
    path = str(tmp_path / "inst.json")
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.H, inst.H)
    assert np.array_equal(back.r, inst.r)
    assert back.sigma == inst.sigma
    assert np.array_equal(back.x_true, inst.x_true)


def test_saved_whole_doubles_stay_doubles(tmp_path):
    inst = RealInstance(H=np.array([[1.0, -2.0], [0.5, 0.0]]), r=np.array([1.0, -1.0]), sigma=2.0,
                        x_true=np.array([-1.0, 1.0]))
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert path.read_text() == (
        '{\n  "n": 2,\n  "k": 2,\n  "sigma": 2.0,\n  "H": [1.0, -2.0, 0.5, 0.0],\n  "r": [1, -1],\n  "x_true": [-1, 1]\n}\n'
    )
    raw = json.loads(path.read_text())
    assert type(raw["sigma"]) is float and all(type(v) is float for v in raw["H"])


def test_instance_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        load_instance(str(p))
    p.write_text('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0]}')
    with pytest.raises(InstanceFormatError, match="missing required field 'r'"):
        load_instance(str(p))
    p.write_text('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0], "r": [1, -1]}')
    with pytest.raises(InstanceFormatError, match="'H' has 1 entries"):
        load_instance(str(p))
    p.write_text('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0], "r": [1, 2]}')
    with pytest.raises(InstanceFormatError, match="r entries"):
        load_instance(str(p))
    cases = (
        ("[1, 2]", "expected a JSON object at top level"),
        ('{"n": 0, "k": 1, "sigma": 1.0, "H": [], "r": []}', "'n' and 'k' must be positive integers"),
        ('{"n": 2, "k": 1.5, "sigma": 1.0, "H": [1.0, 2.0], "r": [1, -1]}', "'n' and 'k' must be positive integers"),
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0], "r": [1]}', "'r' has 1 entries, expected n = 2"),
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0], "r": [1, -1], "x_true": [1, 1]}',
         "'x_true' has 2 entries, expected k = 1"),
        # mistyped fields: each is refused by name, not by a TypeError from len(), float() or reshape
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": 5, "r": [1, -1]}', "'H' must be a list of numbers"),
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0], "r": null}', "'r' must be a list of numbers"),
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": [1.0, 2.0], "r": [1, -1], "x_true": 1}',
         "'x_true' must be a list of numbers"),
        ('{"n": 2, "k": 1, "sigma": null, "H": [1.0, 2.0], "r": [1, -1]}', "'sigma' must be a number"),
        ('{"n": 1, "k": 1, "sigma": 1.0, "H": {"a": 1}, "r": [1]}', "'H' must be a list of numbers"),
        ('{"n": true, "k": true, "sigma": 1.0, "H": [1.0], "r": [1]}', "'n' and 'k' must be positive integers"),
        ('{"n": 2, "k": 1, "sigma": 1.0, "H": [1' + "0" * 400 + ', 2.0], "r": [1, -1]}', "too large"),
    )
    for text, message in cases:
        p.write_text(text)
        with pytest.raises(InstanceFormatError, match=message):
            load_instance(str(p))
