//! Layer probes: timed calls into each layer's public entry points for
//! the traced run, each repetition recorded as a span, and the modelled
//! per-inference counts (crossbar steps, energy, WDM lane fill,
//! simulated latency) that every run checks: they must repeat exactly,
//! or the run fails.

use crate::model::{self, mlp, references, rng, uniform_inputs};
use crate::report::Metric;
use crate::spans::{Span, SpanBuf};
use crate::stats::{lane_fill, median};
use crate::workload::Plan;
use eb_bitnn::{BitMatrix, BitVec, Tensor};
use eb_core::{compile, Design, Machine, OpticalTacitMapped};
use eb_mapping::TacitMapped;
use eb_photonics::{OpcmParams, OpticalCrossbar, Receiver, Transmitter, PAPER_WDM_CAPACITY};
use eb_runtime::{BackendKind, Runtime, SessionStats};
use eb_xbar::{CrossbarArray, DeviceParams, VmmEngine, XbarConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;
use std::time::Instant;

/// Batch width of the `*_b32` and layer batch probes.
const BATCH: usize = 32;

/// Times `reps` calls of `f`, recording each as a span `name`; returns
/// the median in the given scale (1e3 → µs, 1e6 → ms) and the
/// repetition count.
fn timed<T>(
    buf: &mut SpanBuf,
    name: &'static str,
    reps: usize,
    per_unit_ns: f64,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, u64), String> {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f()?);
        let t1 = Instant::now();
        buf.record(name, t0, t1, None, None);
        xs.push(t1.duration_since(t0).as_nanos() as f64 / per_unit_ns);
    }
    Ok((median(&xs), reps as u64))
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

fn bitvecs(n: usize, len: usize, rng: &mut StdRng) -> Vec<BitVec> {
    (0..n)
        .map(|_| BitVec::from_bools(&(0..len).map(|_| rng.gen::<bool>()).collect::<Vec<_>>()))
        .collect()
}

fn bitmatrix(rows: usize, cols: usize, rng: &mut StdRng) -> BitMatrix {
    BitMatrix::from_fn(rows, cols, |_, _| rng.gen::<bool>())
}

/// The probe network (64→128→128→10) of a run seeded with `seed`.
fn probe_net(seed: u64) -> eb_bitnn::Bnn {
    mlp("probe", &[64, 128, 128, 10], &mut rng(seed, "probe-net"))
}

fn probe_inputs(seed: u64) -> Vec<Tensor> {
    uniform_inputs(BATCH, 64, &mut rng(seed, "probe-inputs"))
}

/// Stats accumulated by one `infer_batch`, with the modelled fields only
/// (wall-clock `latency_ns` is kept for the simulator, whose latency is
/// modelled).
fn modelled(kind: BackendKind, before: SessionStats, after: SessionStats) -> [f64; 4] {
    let latency = match kind {
        BackendKind::Simulator => after.latency_ns - before.latency_ns,
        _ => 0.0,
    };
    [
        (after.crossbar_steps - before.crossbar_steps) as f64,
        (after.wdm_lanes - before.wdm_lanes) as f64,
        after.energy_j - before.energy_j,
        latency,
    ]
}

/// Runs every layer probe; returns the per-layer metrics and the spans.
pub fn run(plan: &Plan, origin: Instant) -> Result<(Vec<Metric>, Vec<Span>), String> {
    let mut buf = SpanBuf::new(origin, 9);
    let mut out = Vec::new();
    let mut r = rng(plan.seed, "probes");
    let mut put = |name: &str, (value, n): (f64, u64), unit: &'static str| {
        out.push(Metric::new(name, value, unit, n));
    };

    // bitnn: the workload's own network, 32 of its inputs.
    let net = &plan.models[0].net;
    let xs: Vec<Tensor> = plan.inputs.iter().take(BATCH).cloned().collect();
    put(
        "bitnn.forward_batch_us",
        timed(&mut buf, "bitnn.forward_batch", 16, US, || {
            net.forward_batch(&xs).map_err(|e| e.to_string())
        })?,
        "us",
    );

    // runtime: the probe network on every backend.
    let probe_net = probe_net(plan.seed);
    let probe_xs = probe_inputs(plan.seed);
    for kind in BackendKind::all() {
        let runtime = Runtime::builder().backend(kind).seed(plan.seed).build();
        let mut session = None;
        put(
            &format!("runtime.{kind}.prepare_ms"),
            timed(&mut buf, "runtime.prepare", 3, MS, || {
                session = Some(runtime.prepare(&probe_net).map_err(|e| e.to_string())?);
                Ok(())
            })?,
            "ms",
        );
        let s = session.as_mut().expect("prepared");
        let mut i = 0;
        put(
            &format!("runtime.{kind}.infer_b1_us"),
            timed(&mut buf, "runtime.infer_b1", 16, US, || {
                i += 1;
                s.infer(&probe_xs[i % BATCH]).map_err(|e| e.to_string())
            })?,
            "us",
        );
        put(
            &format!("runtime.{kind}.infer_b32_us"),
            timed(&mut buf, "runtime.infer_b32", 5, US, || {
                s.infer_batch(&probe_xs).map_err(|e| e.to_string())
            })?,
            "us",
        );
    }

    // mapping: a 784-wide, 64-vector TacitMap layer on 256×256 ePCM.
    let w = bitmatrix(64, 784, &mut r);
    let mut mapped =
        TacitMapped::program(&w, &XbarConfig::new(256, 256), &mut r).map_err(|e| e.to_string())?;
    let drives = bitvecs(BATCH, 784, &mut r);
    let mut rr = rng(plan.seed, "mapping-exec");
    put(
        "mapping.execute_batch_us",
        timed(&mut buf, "mapping.execute_batch", 8, US, || {
            mapped
                .execute_batch(&drives, &mut rr)
                .map_err(|e| e.to_string())
        })?,
        "us",
    );

    // xbar: one 256×256 ideal crossbar, 32 drives.
    let mut array = CrossbarArray::new(256, 256, DeviceParams::ideal());
    array
        .program_matrix(&bitmatrix(256, 256, &mut r), &mut r)
        .map_err(|e| e.to_string())?;
    let engine = VmmEngine::with_defaults(array);
    let drives = bitvecs(BATCH, 256, &mut r);
    put(
        "xbar.vmm_counts_batch_us",
        timed(&mut buf, "xbar.vmm_counts_batch", 16, US, || {
            engine
                .vmm_counts_batch(&drives, &mut rr)
                .map_err(|e| e.to_string())
        })?,
        "us",
    );

    // photonics: one 256×256 oPCM crossbar driven on all 16 lanes.
    let mut xbar = OpticalCrossbar::new(256, 256, OpcmParams::ideal_binary());
    xbar.program_matrix(&bitmatrix(256, 256, &mut r), &mut r)
        .map_err(|e| e.to_string())?;
    let frame = Transmitter::with_capacity(PAPER_WDM_CAPACITY)
        .encode(&bitvecs(PAPER_WDM_CAPACITY, 256, &mut r))
        .map_err(|e| e.to_string())?;
    let receiver = Receiver::ideal();
    put(
        "photonics.mmm_counts_us",
        timed(&mut buf, "photonics.mmm_counts", 8, US, || {
            xbar.mmm_counts(&frame, &receiver, &mut rr)
                .map_err(|e| e.to_string())
        })?,
        "us",
    );

    // core: a 128×128 layer on the optical TacitMap mapping (16 lanes),
    // the ISA compiler and the instruction-level machine.
    let mut optical = OpticalTacitMapped::program(
        &bitmatrix(128, 128, &mut r),
        256,
        256,
        PAPER_WDM_CAPACITY,
        &mut r,
    )
    .map_err(|e| e.to_string())?;
    let lanes = bitvecs(PAPER_WDM_CAPACITY, 128, &mut r);
    put(
        "core.execute_wdm_us",
        timed(&mut buf, "core.execute_wdm", 8, US, || {
            optical
                .execute_wdm(&lanes, &mut rr)
                .map_err(|e| e.to_string())
        })?,
        "us",
    );
    let design = Design::einstein_barrier();
    let mut compiled = None;
    put(
        "core.compile_ms",
        timed(&mut buf, "core.compile", 3, MS, || {
            compiled = Some(compile(&design, &probe_net, &mut rr).map_err(|e| e.to_string())?);
            Ok(())
        })?,
        "ms",
    );
    let mut machine = Machine::new(
        compiled.expect("compiled"),
        &design,
        rng(plan.seed, "machine"),
    );
    let mut i = 0;
    put(
        "core.sim_run_us",
        timed(&mut buf, "core.sim_run", 16, US, || {
            i += 1;
            machine.run(&probe_xs[i % BATCH]).map_err(|e| e.to_string())
        })?,
        "us",
    );

    // artifact: decode the workload's own `.ebm`.
    let path = &plan.models[0].ebm;
    put(
        "artifact.read_model_ms",
        timed(&mut buf, "artifact.read_model", 5, MS, || {
            eb_artifact::read_model(path).map_err(|e| e.to_string())
        })?,
        "ms",
    );
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    put("artifact.bytes", (bytes as f64, 1), "bytes");

    Ok((out, buf.into_spans()))
}

/// Modelled counts of one batch of the probe inputs, per backend:
/// `[crossbar steps, WDM lanes, energy (J), simulated latency (ns)]`.
pub type Counts = Vec<(BackendKind, [f64; 4])>;

/// The modelled counts of the probe network on every backend. Each
/// backend serves the probe batch from two sessions prepared by
/// separately built runtimes; both must return `Bnn::forward`'s logits
/// and agree on every count, or this fails.
pub fn modelled_counts(seed: u64) -> Result<Counts, String> {
    let net = probe_net(seed);
    let xs = probe_inputs(seed);
    let want = references(&net, &xs);
    let mut out = Vec::new();
    for kind in BackendKind::all() {
        let mut counts = Vec::new();
        for _ in 0..2 {
            let runtime = Runtime::builder().backend(kind).seed(seed).build();
            let mut s = runtime.prepare(&net).map_err(|e| e.to_string())?;
            let before = s.stats();
            let ys = s.infer_batch(&xs).map_err(|e| e.to_string())?;
            let got: Vec<Vec<u32>> = ys.iter().map(|y| model::bits(y.as_slice())).collect();
            if got != want {
                return Err(format!("{kind} probe batch differs from Bnn::forward"));
            }
            counts.push(modelled(kind, before, s.stats()));
        }
        if counts[0] != counts[1] {
            return Err(format!(
                "{kind} modelled counts did not repeat: {:?} vs {:?}",
                counts[0], counts[1]
            ));
        }
        out.push((kind, counts[0]));
    }
    Ok(out)
}

/// The counts as text, one backend a line, every value as its exact bits.
fn render_counts(counts: &Counts) -> String {
    counts
        .iter()
        .map(|(kind, vs)| {
            let bits: Vec<String> = vs.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            format!("{kind} {}\n", bits.join(" "))
        })
        .collect()
}

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks that `counts` repeat between runs: the first run of this
/// benchmark binary with `seed` records them in `out_dir`, and every
/// later run of the same binary with the same seed must find the same
/// counts there. Keying the record on a hash of the binary keeps a
/// rebuilt program from being compared with another build's counts.
pub fn check_repeat(counts: &Counts, seed: u64, out_dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let image = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let path = out_dir.join(format!("modelled-{:016x}-seed{seed}.txt", fnv1a(&image)));
    let text = render_counts(counts);
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => Err(format!(
            "modelled counts did not repeat between runs: {} holds\n{earlier}this run has\n{text}",
            path.display()
        )),
        Err(_) => {
            // Write then rename, so a reader never sees half a record.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, &text)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

/// The modelled per-inference metrics the traced run reports.
pub fn modelled_metrics(counts: &Counts) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, (value, n): (f64, u64), unit: &'static str| {
        out.push(Metric::new(name, value, unit, n));
    };
    let per_inf = BATCH as f64;
    for &(kind, [steps, lanes, energy_j, latency_ns]) in counts {
        match kind {
            BackendKind::Epcm => {
                put(
                    "mapping.steps_per_inf",
                    (steps / per_inf, BATCH as u64),
                    "count",
                );
                put(
                    "xbar.energy_nj_per_inf",
                    (energy_j / per_inf * 1e9, BATCH as u64),
                    "nJ",
                );
            }
            BackendKind::Photonic => put(
                "photonics.lane_fill",
                (
                    lane_fill(lanes as u64, steps as u64, PAPER_WDM_CAPACITY).unwrap_or(0.0),
                    steps as u64,
                ),
                "ratio",
            ),
            BackendKind::Simulator => {
                put(
                    "core.sim_latency_ns_per_inf",
                    (latency_ns / per_inf, BATCH as u64),
                    "sim_ns",
                );
                put(
                    "core.sim_energy_nj_per_inf",
                    (energy_j / per_inf * 1e9, BATCH as u64),
                    "nJ",
                );
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_counts_pass_and_changed_counts_fail() {
        let dir = std::env::temp_dir().join(format!("servebench-repeat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let counts: Counts = vec![(BackendKind::Epcm, [17.0, 0.0, 2.5e-7, 0.0])];
        check_repeat(&counts, 7, &dir).unwrap();
        check_repeat(&counts, 7, &dir).unwrap();
        let changed: Counts = vec![(BackendKind::Epcm, [17.0, 0.0, 2.5e-7 + 1e-20, 0.0])];
        assert!(check_repeat(&changed, 7, &dir).is_err());
        check_repeat(&changed, 8, &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
