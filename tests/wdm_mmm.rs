//! DESIGN.md E3 (paper Fig. 5): the WDM MMM equals K independent VMMs,
//! through the full optical chain (transmitter → oPCM crossbar →
//! photodetector/TIA → count recovery).

use eb_bitnn::{
    ops, BinLinear, BitMatrix, BitVec, Bnn, FixedLinear, Layer, OutputLinear, Shape, Tensor,
};
use eb_core::{compile, Design, Machine, OpticalTacitMapped};
use eb_photonics::{OpcmParams, OpticalCrossbar, Receiver, Transmitter};
use einstein_barrier::artifact;
use einstein_barrier::{Backend, NoiseConfig, NoiseProfile, PhotonicBackend, SessionOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x1DDE)
}

#[test]
fn mmm_equals_stacked_vmms_through_full_optical_chain() {
    let mut r = rng();
    let bits = BitMatrix::from_fn(32, 8, |a, b| (3 * a + b) % 4 != 2);
    let mut xbar = OpticalCrossbar::new(32, 8, OpcmParams::ideal_binary());
    xbar.program_matrix(&bits, &mut r).unwrap();
    let tx = Transmitter::with_capacity(16);
    let inputs: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..32).map(|i| (i * (k + 1)) % 7 < 3).collect::<Vec<_>>()))
        .collect();

    let frame = tx.encode(&inputs).unwrap();
    let mmm = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
    assert_eq!(mmm.len(), 16);

    for (k, v) in inputs.iter().enumerate() {
        let single = tx.encode(std::slice::from_ref(v)).unwrap();
        let vmm = xbar
            .mmm_counts(&single, &Receiver::ideal(), &mut r)
            .unwrap();
        assert_eq!(mmm[k], vmm[0], "wavelength {k} diverged");
        // And against the pure software AND-accumulate.
        for c in 0..8 {
            assert_eq!(mmm[k][c], v.and(&bits.col(c)).popcount());
        }
    }
}

#[test]
fn wdm_tacitmap_layer_is_exact_for_every_lane_count() {
    let mut r = rng();
    let weights = BitMatrix::from_fn(24, 40, |a, b| (a * 5 + b * 3) % 7 < 3);
    let mut mapped = OpticalTacitMapped::program(&weights, 64, 16, 16, &mut r).unwrap();
    for lanes in [1usize, 2, 5, 16] {
        let inputs: Vec<BitVec> = (0..lanes)
            .map(|k| BitVec::from_bools(&(0..40).map(|i| (i + 3 * k) % 4 < 2).collect::<Vec<_>>()))
            .collect();
        let counts = mapped.execute_wdm(&inputs, &mut r).unwrap();
        for (k, v) in inputs.iter().enumerate() {
            assert_eq!(
                counts[k],
                ops::binary_linear_popcounts(v, &weights),
                "lanes={lanes} k={k}"
            );
        }
    }
    // Four calls above = four MMM time-steps regardless of lane count.
    assert_eq!(mapped.steps_taken(), 4);
}

#[test]
fn over_capacity_is_rejected_cleanly() {
    let tx = Transmitter::with_capacity(4);
    let vs: Vec<BitVec> = (0..5).map(|_| BitVec::ones(8)).collect();
    let err = tx.encode(&vs).unwrap_err();
    assert!(err.to_string().contains("WDM capacity"));
}

#[test]
fn noisy_receiver_stays_within_one_count_at_moderate_scale() {
    let mut r = rng();
    let bits = BitMatrix::from_fn(64, 1, |a, _| a % 2 == 0);
    let mut xbar = OpticalCrossbar::new(64, 1, OpcmParams::ideal_binary());
    xbar.program_matrix(&bits, &mut r).unwrap();
    let tx = Transmitter::with_capacity(2);
    let frame = tx.encode(&[BitVec::ones(64)]).unwrap();
    let mut max_err = 0i64;
    for _ in 0..50 {
        let counts = xbar.mmm_counts(&frame, &Receiver::noisy(), &mut r).unwrap();
        max_err = max_err.max((i64::from(counts[0][0]) - 32).abs());
    }
    assert!(max_err <= 4, "receiver noise too destructive: ±{max_err}");
}

// ---------------------------------------------------------------------
// Cross-build pins. Same-seed replay tests compare two runs of one
// build, so a change that silently alters the noisy RNG stream or the
// `.ebm` byte format would still pass them. These constants were
// recorded before the lane-major oPCM kernel landed; the kernel (and
// any later change) must reproduce them without regeneration. A
// deliberate stream or format change bumps them in the same commit and
// says so in its changelog.
// ---------------------------------------------------------------------

/// FNV-1a-64 over a byte stream.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn counts_hash(counts: &[Vec<u32>]) -> u64 {
    fnv1a64(counts.iter().flatten().flat_map(|c| c.to_le_bytes()))
}

fn logits_hash(logits: &[Tensor]) -> u64 {
    fnv1a64(
        logits
            .iter()
            .flat_map(|t| t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

/// A receiver whose RIN floor moves counts by several steps at full
/// scale, so the pinned counts depend on every noise draw.
fn high_noise_receiver() -> Receiver {
    let mut rx = Receiver::noisy();
    rx.tia.rin_db_hz = -130.0;
    rx
}

fn pin_net(seed: u64) -> (Bnn, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Bnn::new(
        "wdm-pin",
        Shape::Flat(48),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 48, 40, &mut rng)),
            Layer::BinLinear(BinLinear::random("h", 40, 300, &mut rng)),
            Layer::BinLinear(BinLinear::random("h2", 300, 24, &mut rng)),
            Layer::Output(OutputLinear::random("out", 24, 6, &mut rng)),
        ],
    )
    .unwrap();
    let inputs = (0..3)
        .map(|s| Tensor::from_fn(&[48], |i| ((i * 7 + s * 13) as f32 * 0.11).sin()))
        .collect();
    (net, inputs)
}

fn noisy_opts(seed: u64) -> SessionOpts {
    SessionOpts {
        noise: NoiseConfig {
            seed,
            profile: NoiseProfile::Noisy,
            ..NoiseConfig::default()
        },
    }
}

/// Noisy WDM counts through the optical TacitMap mapping and a raw
/// multi-level crossbar (unprogrammed cells, `write_sigma > 0`), for
/// the noisy and high-noise receivers, plus the caller RNG's next draw.
fn noisy_wdm_stream() -> (Vec<u64>, u64) {
    let mut r = StdRng::seed_from_u64(0x5EED);
    let weights = BitMatrix::from_fn(40, 100, |a, b| (a * 11 + b * 5) % 7 < 3);
    let mut mapped = OpticalTacitMapped::program(&weights, 64, 32, 16, &mut r).unwrap();
    let inputs: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..100).map(|i| (i * (k + 2)) % 5 < 2).collect::<Vec<_>>()))
        .collect();
    let mut hashes = Vec::new();
    for rx in [Receiver::ideal(), Receiver::noisy(), high_noise_receiver()] {
        mapped.set_receiver(rx);
        for lanes in [16usize, 5] {
            hashes.push(counts_hash(
                &mapped.execute_wdm(&inputs[..lanes], &mut r).unwrap(),
            ));
        }
    }

    let mut xbar = OpticalCrossbar::new(48, 12, OpcmParams::with_levels(4, 0.03));
    xbar.program_matrix(
        &BitMatrix::from_fn(40, 10, |a, b| (a + 3 * b) % 4 < 2),
        &mut r,
    )
    .unwrap();
    let tx = Transmitter::with_capacity(16);
    let drives: Vec<BitVec> = (0..16)
        .map(|k| BitVec::from_bools(&(0..48).map(|i| (i + k) % 3 != 0).collect::<Vec<_>>()))
        .collect();
    let frame = tx.encode(&drives).unwrap();
    for rx in [Receiver::ideal(), Receiver::noisy(), high_noise_receiver()] {
        hashes.push(counts_hash(&xbar.mmm_counts(&frame, &rx, &mut r).unwrap()));
    }
    (hashes, r.gen())
}

const PIN_WDM_HASHES: [u64; 9] = [
    0x7cf9_8c30_0155_91e3,
    0xec1b_e689_eaa4_47f4,
    0x7cf9_8c30_0155_91e3,
    0xec1b_e689_eaa4_47f4,
    0xc268_049d_7df4_e2ed,
    0x351f_19ab_a18e_dc1c,
    0x2603_5f07_1695_2a02,
    0x4e59_fd97_2586_0734,
    0xbb4a_500d_6bb6_da74,
];
const PIN_WDM_NEXT_DRAW: u64 = 0xf219_9cdb_019f_3c80;
const PIN_PHOTONIC_LOGITS: u64 = 0x0536_e2ae_e609_83bd;
const PIN_SIM_LOGITS: u64 = 0x8d2e_b32b_0627_30a3;
const PIN_SIM_NEXT_DRAW: u64 = 0x8c76_15e9_af6b_4ae5;
const PIN_PHOTONIC_EBM: u64 = 0xdd20_8f2d_bf15_47a3;

#[test]
fn noisy_wdm_counts_and_rng_position_are_pinned_across_builds() {
    let (hashes, next) = noisy_wdm_stream();
    assert_eq!(
        (hashes.as_slice(), next),
        (PIN_WDM_HASHES.as_slice(), PIN_WDM_NEXT_DRAW),
        "the noisy WDM stream changed: {hashes:#x?} next {next:#x}"
    );
}

#[test]
fn noisy_photonic_session_logits_are_pinned_across_builds() {
    let (net, inputs) = pin_net(0xB17);
    let mut session = PhotonicBackend::default()
        .prepare(&net, &noisy_opts(0xC0FFEE))
        .unwrap();
    let mut logits: Vec<Tensor> = inputs.iter().map(|x| session.infer(x).unwrap()).collect();
    logits.extend(session.infer_batch(&inputs).unwrap());
    let got = logits_hash(&logits);
    assert_eq!(
        got, PIN_PHOTONIC_LOGITS,
        "photonic logits changed: {got:#x}"
    );
}

#[test]
fn simulator_logits_and_rng_position_are_pinned_across_builds() {
    let (net, inputs) = pin_net(0xB17);
    let design = Design::einstein_barrier();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let compiled = compile(&design, &net, &mut rng).unwrap();
    let mut machine = Machine::new(compiled, &design, &mut rng);
    let logits: Vec<Tensor> = inputs.iter().map(|x| machine.run(x).unwrap()).collect();
    drop(machine);
    let got = (logits_hash(&logits), rng.gen::<u64>());
    assert_eq!(
        got,
        (PIN_SIM_LOGITS, PIN_SIM_NEXT_DRAW),
        "simulator stream changed: {got:#x?}"
    );
}

#[test]
fn photonic_prepared_artifact_bytes_are_pinned_across_builds() {
    let (net, _) = pin_net(0xB17);
    let prepared = PhotonicBackend::default()
        .export_prepared(&net, &noisy_opts(0xC0FFEE))
        .unwrap();
    let bytes = artifact::encode(&net, prepared.as_ref()).unwrap();
    let got = fnv1a64(bytes.iter().copied());
    assert_eq!(
        got, PIN_PHOTONIC_EBM,
        "photonic .ebm bytes changed: {got:#x}"
    );
}

// The shape the `accel-wdm` benchmark workload serves: a 64→128→128→10
// MLP on the default 256×256, K = 16 geometry, so every matrix layer
// leaves 128 of its crossbar's columns unprogrammed. These constants
// were recorded before the oPCM kernel began sharing one accumulation
// chain across unprogrammed columns; the shared chain must reproduce
// them without regeneration.

fn accel_net(seed: u64) -> (Bnn, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Bnn::new(
        "wdm-accel-pin",
        Shape::Flat(64),
        vec![
            Layer::FixedLinear(FixedLinear::random("in", 64, 128, &mut rng)),
            Layer::BinLinear(BinLinear::random("h0", 128, 128, &mut rng)),
            Layer::Output(OutputLinear::random("out", 128, 10, &mut rng)),
        ],
    )
    .unwrap();
    // 20 inputs: in `infer_batch` the binary layer packs one full
    // 16-lane frame and one partial one.
    let inputs = (0..20)
        .map(|s| Tensor::from_fn(&[64], |i| ((i * 5 + s * 17) as f32 * 0.07).cos()))
        .collect();
    (net, inputs)
}

const PIN_ACCEL_PHOTONIC_LOGITS: u64 = 0xa501_6eb6_bb9d_e192;
const PIN_ACCEL_SIM_LOGITS: u64 = 0x80df_2cbc_a6ca_85d2;
const PIN_ACCEL_SIM_NEXT_DRAW: u64 = 0x8a9f_5e9f_73c8_bd42;

#[test]
fn accel_shape_noisy_photonic_logits_are_pinned_across_builds() {
    let (net, inputs) = accel_net(0xACCE1);
    let mut session = PhotonicBackend::default()
        .prepare(&net, &noisy_opts(0xD00D))
        .unwrap();
    let mut logits: Vec<Tensor> = inputs[..4]
        .iter()
        .map(|x| session.infer(x).unwrap())
        .collect();
    logits.extend(session.infer_batch(&inputs).unwrap());
    let got = logits_hash(&logits);
    assert_eq!(
        got, PIN_ACCEL_PHOTONIC_LOGITS,
        "accel-shape photonic logits changed: {got:#x}"
    );
}

#[test]
fn accel_shape_simulator_logits_and_rng_position_are_pinned_across_builds() {
    let (net, inputs) = accel_net(0xACCE1);
    let design = Design::einstein_barrier();
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let compiled = compile(&design, &net, &mut rng).unwrap();
    let mut machine = Machine::new(compiled, &design, &mut rng);
    let logits: Vec<Tensor> = inputs.iter().map(|x| machine.run(x).unwrap()).collect();
    drop(machine);
    let got = (logits_hash(&logits), rng.gen::<u64>());
    assert_eq!(
        got,
        (PIN_ACCEL_SIM_LOGITS, PIN_ACCEL_SIM_NEXT_DRAW),
        "accel-shape simulator stream changed: {got:#x?}"
    );
}
