"""Volume I/O, phantom generation, windowing, and augmentation."""
import numpy as np
import pytest
from scipy import ndimage, special

import oracles
from hemoseg import augment as augment_module
from hemoseg.augment import PAD_VALUE, AugmentPolicy, augment, hu_window, zscore_normalize
from hemoseg.phantoms import (
    BRAIN_FRACTION,
    PhantomError,
    PhantomSpec,
    generate_dataset,
    generate_phantom,
    list_cases,
    rasterize_ellipsoid,
)
from hemoseg.volumes import (
    HEADER,
    RvolError,
    SegMask,
    VolumeImage,
    read_rvol,
    resize_nearest,
    resize_trilinear,
    write_rvol,
)


class TestRvolFormat:
    def test_header_is_42_bytes(self):
        assert HEADER.size == 42

    def test_image_round_trip(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(3, 4, 5)).astype(np.float32), (5.0, 0.518, 0.518))
        path = tmp_path / "a.rvol"
        write_rvol(path, img)
        back = read_rvol(path)
        assert isinstance(back, VolumeImage)
        np.testing.assert_array_equal(back.voxels, img.voxels)
        assert back.spacing_mm == img.spacing_mm

    def test_mask_round_trip(self, rng, tmp_path):
        msk = SegMask((rng.random((2, 3, 3)) < 0.5).astype(np.uint8), (1.0, 1.0, 1.0))
        path = tmp_path / "m.rvol"
        write_rvol(path, msk)
        back = read_rvol(path)
        assert isinstance(back, SegMask)
        np.testing.assert_array_equal(back.voxels, msk.voxels)

    def test_write_read_write_is_byte_identical(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(4, 6, 5)).astype(np.float32), (5.0, 0.518, 0.518))
        p1, p2 = tmp_path / "x.rvol", tmp_path / "y.rvol"
        write_rvol(p1, img)
        write_rvol(p2, read_rvol(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_arithmetic(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(3, 4, 5)).astype(np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "s.rvol"
        write_rvol(path, img)
        assert path.stat().st_size == 42 + 3 * 4 * 5 * 4

    def test_failed_write_keeps_previous_file(self, tmp_path, fill_disk):
        path = tmp_path / "m.rvol"
        path.write_bytes(b"previous contents")
        cut = fill_disk()
        with pytest.raises(OSError):
            write_rvol(path, SegMask(np.ones((4, 6, 5), np.uint8), (1.0, 1.0, 1.0)))
        assert cut and path.read_bytes() == b"previous contents"
        assert [p.name for p in tmp_path.iterdir()] == ["m.rvol"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rvol"
        path.write_bytes(b"XVOL" + b"\x00" * 60)
        with pytest.raises(RvolError, match="bad magic"):
            read_rvol(path)

    def test_truncated_payload(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(2, 2, 2)).astype(np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "t.rvol"
        write_rvol(path, img)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(RvolError, match="payload has 27 bytes, header promises 32"):
            read_rvol(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.rvol"
        path.write_bytes(b"RVOL\x01")
        with pytest.raises(RvolError, match="header needs 42 bytes"):
            read_rvol(path)

    def test_unknown_dtype(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(1, 1, 1)).astype(np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "d.rvol"
        write_rvol(path, img)
        raw = bytearray(path.read_bytes())
        raw[5] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(RvolError, match="unknown dtype code 9"):
            read_rvol(path)

    def test_unknown_version(self, rng, tmp_path):
        img = VolumeImage(rng.normal(size=(1, 1, 1)).astype(np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "v.rvol"
        write_rvol(path, img)
        raw = bytearray(path.read_bytes())
        raw[4] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(RvolError, match="unsupported version 7"):
            read_rvol(path)

    def test_mask_values_validated(self):
        with pytest.raises(ValueError):
            SegMask(np.full((1, 1, 1), 2, dtype=np.uint8), (1.0, 1.0, 1.0))

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            VolumeImage(np.zeros((1, 1, 1), dtype=np.float32), (0.0, 1.0, 1.0))


class TestResize:
    def test_trilinear_identity(self, rng):
        v = rng.normal(size=(3, 4, 5))
        np.testing.assert_array_equal(resize_trilinear(v, (3, 4, 5)), v)

    def test_trilinear_constant(self):
        v = np.full((2, 3, 3), 4.5)
        out = resize_trilinear(v, (5, 7, 6))
        np.testing.assert_allclose(out, 4.5, rtol=1e-12)

    def test_trilinear_matches_integer_factor_upsampling(self, rng):
        from hemoseg.autodiff import Tensor, upsample_trilinear

        v = rng.normal(size=(2, 3, 3))
        got = resize_trilinear(v, (4, 6, 9))
        want = upsample_trilinear(Tensor(v[None, None]), (2, 2, 3)).data[0, 0]
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_nearest_keeps_label_values(self, rng):
        v = rng.integers(0, 5, size=(4, 6, 6))
        out = resize_nearest(v, (3, 4, 9))
        assert set(np.unique(out)) <= set(np.unique(v))

    def test_nearest_identity(self, rng):
        v = rng.integers(0, 2, size=(3, 3, 3))
        np.testing.assert_array_equal(resize_nearest(v, (3, 3, 3)), v)

    def test_round_trip_recovers_solid_box(self):
        m = np.zeros((8, 8, 8), dtype=np.uint8)
        m[2:6, 2:6, 2:6] = 1
        down = resize_nearest(m, (4, 4, 4))
        up = resize_nearest(down, (8, 8, 8))
        assert up.sum() > 0 and up.max() == 1


class TestPhantoms:
    def test_zero_lesions_gives_empty_mask(self):
        spec = PhantomSpec(lesion_count_range=(0, 0), seed=1)
        _, mask, record = generate_phantom(spec)
        assert mask.voxels.sum() == 0
        assert record["lesion_count"] == 0

    def test_same_seed_bit_identical(self):
        a_img, a_msk, _ = generate_phantom(PhantomSpec(seed=42))
        b_img, b_msk, _ = generate_phantom(PhantomSpec(seed=42))
        assert a_img.voxels.tobytes() == b_img.voxels.tobytes()
        assert a_msk.voxels.tobytes() == b_msk.voxels.tobytes()

    def test_different_seed_differs(self):
        a, _, _ = generate_phantom(PhantomSpec(seed=1))
        b, _, _ = generate_phantom(PhantomSpec(seed=2))
        assert a.voxels.tobytes() != b.voxels.tobytes()

    def test_rasterized_ellipsoid_volume_within_2pct(self):
        semi = (15.0, 18.0, 20.0)
        mask = rasterize_ellipsoid((40, 50, 60), (1.0, 1.0, 1.0), (20.0, 25.0, 30.0), semi)
        analytic = 4.0 / 3.0 * np.pi * semi[0] * semi[1] * semi[2]
        assert abs(mask.sum() - analytic) / analytic < 0.02

    def test_lesions_inside_brain(self):
        spec = PhantomSpec(shape=(16, 64, 64), lesion_count_range=(2, 3), seed=7)
        _, mask, _ = generate_phantom(spec)
        extent = np.array([n * s for n, s in zip(spec.shape, spec.spacing_mm)])
        brain = rasterize_ellipsoid(
            spec.shape, spec.spacing_mm, extent / 2, BRAIN_FRACTION * extent / 2
        )
        assert not np.any(mask.voxels.astype(bool) & ~brain)

    def test_unplaceable_lesion_errors(self):
        spec = PhantomSpec(shape=(4, 16, 16), semi_axes_mm_range=(200.0, 300.0), seed=0)
        with pytest.raises(PhantomError):
            generate_phantom(spec)

    def test_class_tags(self):
        _, _, solo = generate_phantom(PhantomSpec(lesion_count_range=(1, 1), seed=3))
        _, _, multi = generate_phantom(PhantomSpec(lesion_count_range=(2, 2), seed=3))
        assert solo["lesion_class"] == "solitary"
        assert multi["lesion_class"] == "scattered"

    def test_dataset_generation(self, tmp_path):
        cases = generate_dataset(tmp_path / "ds", 3, seed=5, template=PhantomSpec())
        assert len(cases) == 3
        assert list_cases(tmp_path / "ds") == ["0000", "0001", "0002"]
        assert (tmp_path / "ds" / "dataset.json").exists()

    def test_dataset_regeneration_identical(self, tmp_path):
        generate_dataset(tmp_path / "a", 2, seed=9, template=PhantomSpec())
        generate_dataset(tmp_path / "b", 2, seed=9, template=PhantomSpec())
        for name in ["case_0000_img.rvol", "case_0001_msk.rvol"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestHuWindow:
    def make(self, values):
        return VolumeImage(np.array(values, dtype=np.float32).reshape(1, 1, -1), (1.0, 1.0, 1.0))

    def test_clamp_ends(self):
        out = hu_window(self.make([-100.0, 200.0])).voxels.ravel()
        assert out[0] == 0.0 and out[1] == 1.0

    def test_center_maps_to_half(self):
        assert hu_window(self.make([40.0])).voxels.ravel()[0] == pytest.approx(0.5)

    def test_window_endpoints(self):
        out = hu_window(self.make([-5.0, 85.0])).voxels.ravel()
        assert out[0] == 0.0 and out[1] == 1.0

    def test_monotone_and_bounded(self, rng):
        hu = np.sort(rng.uniform(-200, 200, size=50)).astype(np.float32)
        out = hu_window(VolumeImage(hu.reshape(1, 1, -1), (1, 1, 1))).voxels.ravel()
        assert np.all(np.diff(out) >= 0)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestZscore:
    def test_constant_maps_to_zero(self):
        out = zscore_normalize(np.full((2, 3, 3), 7.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_mean_zero_std_one(self, rng):
        out = zscore_normalize(rng.normal(5.0, 3.0, size=(4, 8, 8)))
        assert abs(out.mean()) < 1e-5
        assert abs(out.std() - 1.0) < 1e-5

    def test_equals_the_two_pass_form(self, rng):
        # one centring pass, bit for bit the np.std-then-mean expression, on
        # constant, partly zero, tiny- and large-scale patches
        for i in range(400):
            shape = tuple(int(v) for v in rng.integers(1, 10, size=3))
            patch = rng.standard_normal(shape) * (1e-3, 1.0, 1e3, 1.0)[i % 4] + rng.normal(0.0, 10.0)
            if i % 5 == 0:
                patch[:] = rng.normal()
            if i % 5 == 1:
                patch[rng.random(shape) < 0.5] = 0.0
            if i % 2:
                patch = patch.astype(np.float32)
            np.testing.assert_array_equal(zscore_normalize(patch), oracles.zscore_normalize_two_pass(patch))

    def test_affine_invariance(self, rng):
        x = rng.normal(size=(3, 5, 5))
        np.testing.assert_allclose(zscore_normalize(3.5 * x + 2.0), zscore_normalize(x), atol=1e-5)


def lesion_volume(shape=(8, 64, 64)):
    img, msk, _ = generate_phantom(
        PhantomSpec(
            shape=shape,
            spacing_mm=(4.0, 1.0, 1.0),
            lesion_count_range=(1, 1),
            semi_axes_mm_range=(8.0, 10.0),
            seed=11,
        )
    )
    windowed = hu_window(img)
    return windowed.voxels.astype(np.float64), msk.voxels


class TestAugment:
    def test_disabled_policy_is_identity_apart_from_crop(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.disabled(img.shape)
        out_img, out_msk = augment(img, msk, np.random.default_rng(0), policy)
        np.testing.assert_array_equal(out_img, img.astype(np.float32))
        np.testing.assert_array_equal(out_msk, msk)

    def test_double_flip_is_identity(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.disabled(img.shape)
        policy.flip_prob = 1.0
        rng = np.random.default_rng(1)
        once_img, once_msk = augment(img, msk, rng, policy)
        twice_img, twice_msk = augment(once_img, once_msk, rng, policy)
        np.testing.assert_allclose(twice_img, img.astype(np.float32), atol=1e-6)
        np.testing.assert_array_equal(twice_msk, msk)

    def test_flip_preserves_mask_count_and_mirrors_centroid(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.disabled(img.shape)
        policy.flip_prob = 1.0
        out_img, out_msk = augment(img, msk, np.random.default_rng(2), policy)
        assert out_msk.sum() == msk.sum()
        c_in = np.argwhere(msk).mean(axis=0)
        c_out = np.argwhere(out_msk).mean(axis=0)
        mirrored = np.array(
            [c_in[0], msk.shape[1] - 1 - c_in[1], msk.shape[2] - 1 - c_in[2]]
        )
        assert np.all(np.abs(c_out - mirrored) <= 0.5)

    def test_rotation_changes_mask_count_at_most_5pct(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.geometric_only(img.shape)
        policy.flip_prob = 0.0
        for seed in range(5):
            _, out_msk = augment(img, msk, np.random.default_rng(seed), policy)
            change = abs(int(out_msk.sum()) - int(msk.sum())) / msk.sum()
            assert change <= 0.05

    def test_same_rng_seed_reproduces(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy(crop_shape=(4, 24, 24))
        a_img, a_msk = augment(img, msk, np.random.default_rng(33), policy)
        b_img, b_msk = augment(img, msk, np.random.default_rng(33), policy)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_msk, b_msk)

    def test_foreground_biased_crop_hits_lesion(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.disabled((4, 16, 16))
        policy.fg_bias_prob = 1.0
        for seed in range(10):
            _, out_msk = augment(img, msk, np.random.default_rng(seed), policy)
            assert out_msk.sum() > 0

    def test_small_volume_padded_to_crop(self):
        img = np.full((4, 16, 16), 0.75, dtype=np.float32)
        msk = np.ones((4, 16, 16), dtype=np.uint8)
        out_img, out_msk = augment(img, msk, np.random.default_rng(0), AugmentPolicy.disabled((8, 32, 32)))
        assert out_img.shape == (8, 32, 32)
        assert out_msk.shape == (8, 32, 32)
        # the volume sits at the centre, padded by 2 slices and 8 rows and columns each side
        inner = np.s_[2:6, 8:24, 8:24]
        np.testing.assert_array_equal(out_img[inner], img)
        np.testing.assert_array_equal(out_msk[inner], msk)
        outside = np.ones((8, 32, 32), dtype=bool)
        outside[inner] = False
        assert (out_img[outside] == PAD_VALUE).all()
        assert (out_msk[outside] == 0).all()

    def test_intensity_steps_leave_mask_alone(self):
        img, msk = lesion_volume()
        policy = AugmentPolicy.disabled(img.shape)
        policy.noise_prob = 1.0
        policy.smooth_prob = 1.0
        out_img, out_msk = augment(img, msk, np.random.default_rng(4), policy)
        np.testing.assert_array_equal(out_msk, msk)
        assert not np.array_equal(out_img, img.astype(np.float32))

    @pytest.mark.parametrize("part", [np.s_[:], np.s_[1:6, 22:41, :]], ids=["inside", "padded"])
    def test_patch_equals_crop_of_whole_volume_pipeline(self, part):
        # noise off: sampling only the crop and its smoothing halo through the
        # rotated, flipped grid matches rotating, flipping and smoothing the
        # whole volume, then padding and cropping at the same origin (corners
        # included); the "padded" volume is smaller than the crop on two axes
        img, msk = (np.ascontiguousarray(a[part]) for a in lesion_volume((16, 64, 64)))
        crop = (8, 32, 32)
        padded = [max(n, c) for n, c in zip(img.shape, crop)]
        rng = np.random.default_rng(5)
        for angle in (None, 17.3, -29.9, 90.0, 0.004):
            for flips in ((False, False), (True, False), (False, True), (True, True)):
                for sigma in (None, 0.5, 0.83, 1.0):
                    geometry = augment_module._Geometry(img.shape, 0.0 if angle is None else angle, flips)
                    for origin in ([0, 0, 0], [n - c for n, c in zip(padded, crop)],
                                   [int(rng.integers(n - c + 1)) for n, c in zip(padded, crop)]):
                        got_img, got_msk = augment_module._patch(img, msk, geometry, origin, crop, sigma)
                        want_img, want_msk = oracles.augment_whole_volume_then_crop(
                            img, msk, angle, flips, sigma, origin, crop
                        )
                        np.testing.assert_allclose(got_img, want_img, rtol=0, atol=1e-12)
                        np.testing.assert_array_equal(got_msk, want_msk)

    def test_foreground_centre_follows_the_rotation(self):
        # the centre is drawn from the input mask and carried through the
        # rotation and flips, so a foreground-biased crop still hits the lesion
        img, msk = lesion_volume()
        policy = AugmentPolicy.geometric_only((4, 16, 16))
        policy.fg_bias_prob = 1.0
        for seed in range(20):
            _, out_msk = augment(img, msk, np.random.default_rng(seed), policy)
            assert out_msk.sum() > 0


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestScipyPorts:
    """The augmentation's numpy ports of scipy routines give scipy's bits."""

    def test_degree_trig_equals_scipy_special(self, rng):
        angles = np.concatenate([
            rng.uniform(-30.0, 30.0, 125_000),
            rng.uniform(-720.0, 720.0, 125_000),
            np.arange(-720, 721) * 0.5,
        ])
        for fn, cosine in ((special.cosdg, True), (special.sindg, False)):
            want = fn(angles)
            got = np.array([augment_module._degree_trig(float(a), cosine) for a in angles])
            assert_bitwise(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sampling_equals_map_coordinates(self, rng, dtype):
        image = rng.normal(size=(3, 9, 11)).astype(dtype)
        image[0, :2, :2] = -0.0
        mask = rng.integers(0, 4, size=image.shape).astype(np.uint8)

        def coordinates(n, size):
            ties = np.arange(-1, n + 1) + 0.5
            exact = np.array([0.0, n - 1.0, -1e-12, 1e-12, n - 1 - 1e-12, n - 1 + 1e-12])
            pools = (rng.uniform(-1.5, n + 0.5, size), rng.integers(-1, n + 1, size).astype(np.float64),
                     rng.choice(ties, size), rng.choice(exact, size))
            return np.choose(rng.integers(0, len(pools), size), pools)

        y, x = coordinates(9, (100, 200)), coordinates(11, (100, 200))
        y[0, :4], x[0, :4] = (0.0, 8.0, 0.0, 8.0), (0.0, 0.0, 10.0, 10.0)  # the four corners
        got_img, got_msk = augment_module._sample_planes(image, mask, y, x)
        coords = np.stack(np.broadcast_arrays(np.arange(3.0)[:, None, None], y, x))
        want_img = ndimage.map_coordinates(image, coords, np.float64, order=1, mode="constant",
                                           cval=augment_module.PAD_VALUE)
        want_msk = ndimage.map_coordinates(mask, coords, order=0, mode="constant", cval=0)
        assert_bitwise(got_img, want_img)
        assert_bitwise(got_msk, want_msk)
        assert (want_img == 0).mean() < 0.5 and want_msk.any()

    def test_smoothing_equals_gaussian_filter(self, rng):
        narrower = 0
        for _ in range(300):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 24)), int(rng.integers(1, 24)))
            sigma = float(rng.uniform(0.05, 2.5))
            img = rng.normal(size=shape)
            want = ndimage.gaussian_filter(img, sigma=(0.0, sigma, sigma))
            assert_bitwise(augment_module._smooth_in_plane(img, sigma), want)
            narrower += min(shape[1:]) < augment_module._smoothing_radius(sigma)
        assert narrower > 20

    def test_smoothing_skips_a_vanishing_sigma(self, rng):
        img = rng.normal(size=(2, 5, 6))
        for sigma in (1e-15, 1e-300, 0.0):
            got = augment_module._smooth_in_plane(img, sigma)
            assert_bitwise(got, ndimage.gaussian_filter(img, sigma=(0.0, sigma, sigma)))
            assert np.isfinite(got).all()

    @pytest.mark.parametrize("angle", [None, 17.3])
    def test_patch_of_a_region_narrower_than_the_smoothing_radius(self, rng, angle):
        # a 3x3 plane is narrower than the radius 4 of sigma 1, so the
        # smoothing reflects more than once; the patch pads it to the crop.
        # Sampled at angle 0, the patch is the unrotated scipy pipeline's bits.
        img = rng.uniform(0.0, 1.0, size=(2, 3, 3)).astype(np.float32)
        msk = (img > 0.5).astype(np.uint8)
        crop = (2, 8, 8)
        for flips in ((False, False), (True, True)):
            geometry = augment_module._Geometry(img.shape, 0.0 if angle is None else angle, flips)
            got_img, got_msk = augment_module._patch(img, msk, geometry, [0, 0, 0], crop, 1.0)
            want_img, want_msk = oracles.augment_whole_volume_then_crop(img, msk, angle, flips, 1.0, [0, 0, 0], crop)
            if angle is None:
                assert_bitwise(got_img, want_img)
            else:  # ndimage.rotate builds its grid in another order
                np.testing.assert_allclose(got_img, want_img, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got_msk, want_msk)
