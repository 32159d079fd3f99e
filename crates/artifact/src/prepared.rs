//! The prepared-state section: a snapshot of everything a backend's
//! `prepare()` produces, so deploy-from-file can skip crossbar
//! programming (and its RNG draws, write-count wear, and compile time).
//!
//! Restoring is *not* a re-program: device conductances, transmission
//! levels, write counters, execution counters, and the post-programming
//! RNG position are all reloaded verbatim, so a restored session's noisy
//! output stream is bit-identical to the in-memory session the snapshot
//! was taken from.
//!
//! The section also records the [`PreparedMeta`] the state was captured
//! under (backend, seed, noise profile, drift, fault profile). Loaders
//! must compare it against the requested session options and reject
//! conflicts — silently serving stale noise configuration is the exact
//! failure mode the runtime's no-silent-fallback rule exists to prevent.

use crate::error::ArtifactError;
use crate::model::{get_shape, put_shape};
use crate::wire::{ByteReader, ByteWriter};
use eb_bitnn::ThresholdSpec;
use eb_core::{
    AluOp, ChipConfig, CompiledNetwork, Design, DesignKind, Instruction, LayerPlacement,
    MappedVcore, MmmLane, OpticalTacitMapped, Program, VcoreAddr,
};
use eb_mapping::{SeededTacitMapped, TacitMapped};
use eb_photonics::{OpcmDevice, OpcmParams, OpticalCrossbar, Photodetector, Receiver, Tia};
use eb_xbar::{
    CellKind, CrossbarArray, DeviceParams, EpcmDevice, FaultConfig, VmmEngine, XbarConfig,
    XbarEnergies, XbarTimings,
};

const BACKEND_EPCM: u8 = 1;
const BACKEND_PHOTONIC: u8 = 2;
const BACKEND_SIMULATOR: u8 = 3;

/// Which backend captured a prepared-state section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreparedBackend {
    /// Electronic TacitMap-ePCM crossbars (`BackendKind::Epcm`).
    Epcm,
    /// Optical oPCM crossbars with WDM (`BackendKind::Photonic`).
    Photonic,
    /// The full-chip EinsteinBarrier simulator (`BackendKind::Simulator`).
    Simulator,
}

impl PreparedBackend {
    /// The runtime backend name this state belongs to.
    pub fn name(self) -> &'static str {
        match self {
            Self::Epcm => "epcm",
            Self::Photonic => "photonic",
            Self::Simulator => "simulator",
        }
    }
}

/// The session configuration a prepared-state snapshot was captured
/// under. Loaders must verify it against the requested options.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedMeta {
    /// Capturing backend.
    pub backend: PreparedBackend,
    /// Base noise seed the state was programmed with.
    pub seed: u64,
    /// Whether the noisy device profile was active.
    pub noisy: bool,
    /// Drift read-time ratio applied at capture, if any.
    pub drift_t_ratio: Option<f64>,
    /// Fault profile applied at capture, if any.
    pub fault: Option<FaultConfig>,
}

/// One photonic matrix layer: the programmed optical crossbars plus the
/// RNG position and WDM-lane counter of the owning session.
#[derive(Debug)]
pub struct PhotonicMat {
    /// The programmed optical mapping.
    pub mapped: OpticalTacitMapped,
    /// RNG state for subsequent receiver/device draws.
    pub rng_state: [u64; 4],
    /// WDM lanes carried so far.
    pub lanes: u64,
}

/// The design parameters a simulator snapshot was compiled for — enough
/// to refuse restoring onto a differently-configured simulator without
/// serializing the full cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignFingerprint {
    /// Design kind.
    pub kind: DesignKind,
    /// Chip topology.
    pub chip: ChipConfig,
    /// Crossbar geometry/periphery.
    pub xbar: XbarConfig,
    /// WDM capacity.
    pub wdm_capacity: usize,
}

impl DesignFingerprint {
    /// Captures the restore-relevant parameters of a design.
    pub fn of(design: &Design) -> Self {
        Self {
            kind: design.kind,
            chip: design.chip.clone(),
            xbar: design.xbar.clone(),
            wdm_capacity: design.wdm_capacity,
        }
    }

    /// Whether a design matches this fingerprint.
    pub fn matches(&self, design: &Design) -> bool {
        self.kind == design.kind
            && self.chip == design.chip
            && self.xbar == design.xbar
            && self.wdm_capacity == design.wdm_capacity
    }
}

/// The backend-specific programmed state.
#[derive(Debug)]
pub enum PreparedState {
    /// One seeded electronic mapping per matrix layer.
    Epcm(Vec<SeededTacitMapped>),
    /// One optical mapping per matrix layer.
    Photonic(Vec<PhotonicMat>),
    /// A compiled simulator program with its mapped weights.
    Simulator {
        /// Design the network was compiled for.
        fingerprint: Box<DesignFingerprint>,
        /// The compiled network (program, mapped vcores, tables).
        compiled: CompiledNetwork,
        /// RNG state after compilation/programming.
        rng_state: [u64; 4],
    },
}

impl PreparedState {
    /// The backend this state restores onto.
    pub fn backend(&self) -> PreparedBackend {
        match self {
            Self::Epcm(_) => PreparedBackend::Epcm,
            Self::Photonic(_) => PreparedBackend::Photonic,
            Self::Simulator { .. } => PreparedBackend::Simulator,
        }
    }
}

/// A complete prepared-state snapshot: capture metadata plus state.
#[derive(Debug)]
pub struct Prepared {
    /// Capture-time session configuration.
    pub meta: PreparedMeta,
    /// The programmed state itself.
    pub state: PreparedState,
}

// ---------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------

fn put_opt_f64(w: &mut ByteWriter, v: Option<f64>) {
    match v {
        None => w.put_u8(0),
        Some(x) => {
            w.put_u8(1);
            w.put_f64(x);
        }
    }
}

fn get_opt_f64(r: &mut ByteReader<'_>) -> Result<Option<f64>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        tag => Err(ArtifactError::malformed(format!("option tag {tag}"))),
    }
}

fn put_fault(w: &mut ByteWriter, fault: Option<&FaultConfig>) {
    match fault {
        None => w.put_u8(0),
        Some(f) => {
            w.put_u8(1);
            w.put_f64(f.stuck_on);
            w.put_f64(f.stuck_off);
            w.put_f64(f.dead);
            w.put_u64(f.seed);
        }
    }
}

fn get_fault(r: &mut ByteReader<'_>) -> Result<Option<FaultConfig>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(FaultConfig {
            stuck_on: r.f64()?,
            stuck_off: r.f64()?,
            dead: r.f64()?,
            seed: r.u64()?,
        })),
        tag => Err(ArtifactError::malformed(format!("fault tag {tag}"))),
    }
}

fn put_device_params(w: &mut ByteWriter, p: &DeviceParams) {
    w.put_f64(p.g_on);
    w.put_f64(p.g_off);
    w.put_f64(p.program_sigma);
    w.put_f64(p.read_sigma);
    w.put_f64(p.drift_nu);
}

fn get_device_params(r: &mut ByteReader<'_>) -> Result<DeviceParams, ArtifactError> {
    Ok(DeviceParams {
        g_on: r.f64()?,
        g_off: r.f64()?,
        program_sigma: r.f64()?,
        read_sigma: r.f64()?,
        drift_nu: r.f64()?,
    })
}

pub(crate) fn put_xbar_config(w: &mut ByteWriter, cfg: &XbarConfig) {
    w.put_usize(cfg.rows);
    w.put_usize(cfg.cols);
    w.put_u8(match cfg.cell {
        CellKind::OneT1R => 0,
        CellKind::TwoT2R => 1,
    });
    w.put_f64(cfg.v_read);
    w.put_u8(cfg.adc_bits);
    w.put_usize(cfg.n_adcs);
    put_device_params(w, &cfg.device);
    put_fault(w, cfg.fault.as_ref());
    let t = &cfg.timings;
    for v in [
        t.t_settle_ns,
        t.t_adc_ns,
        t.t_dac_ns,
        t.t_pcsa_cycle_ns,
        t.t_popcount_stage_ns,
        t.t_write_ns,
    ] {
        w.put_f64(v);
    }
    let e = &cfg.energies;
    for v in [
        e.e_adc_pj,
        e.e_dac_pj,
        e.e_cell_read_fj,
        e.e_pcsa_fj,
        e.e_popcount_bit_fj,
        e.e_write_pj,
        e.e_row_drive_fj,
    ] {
        w.put_f64(v);
    }
}

pub(crate) fn get_xbar_config(r: &mut ByteReader<'_>) -> Result<XbarConfig, ArtifactError> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let cell = match r.u8()? {
        0 => CellKind::OneT1R,
        1 => CellKind::TwoT2R,
        tag => return Err(ArtifactError::malformed(format!("cell kind tag {tag}"))),
    };
    let v_read = r.f64()?;
    let adc_bits = r.u8()?;
    let n_adcs = r.usize()?;
    let device = get_device_params(r)?;
    let fault = get_fault(r)?;
    let timings = XbarTimings {
        t_settle_ns: r.f64()?,
        t_adc_ns: r.f64()?,
        t_dac_ns: r.f64()?,
        t_pcsa_cycle_ns: r.f64()?,
        t_popcount_stage_ns: r.f64()?,
        t_write_ns: r.f64()?,
    };
    let energies = XbarEnergies {
        e_adc_pj: r.f64()?,
        e_dac_pj: r.f64()?,
        e_cell_read_fj: r.f64()?,
        e_pcsa_fj: r.f64()?,
        e_popcount_bit_fj: r.f64()?,
        e_write_pj: r.f64()?,
        e_row_drive_fj: r.f64()?,
    };
    Ok(XbarConfig {
        rows,
        cols,
        cell,
        v_read,
        adc_bits,
        n_adcs,
        device,
        fault,
        timings,
        energies,
    })
}

// Cell grids are the bulk of a prepared section (one entry per device
// across every crossbar), so they use a structure-of-arrays layout: the
// full tag run first, then one value record per programmed cell, in
// row-major tag order. Decoding then needs two bounds checks per array
// rather than two per cell — cold-start decode time is the whole point
// of shipping prepared state.

fn put_array(w: &mut ByteWriter, a: &CrossbarArray) {
    w.put_u32(a.rows() as u32);
    w.put_u32(a.cols() as u32);
    put_device_params(w, a.params());
    w.put_u64(a.write_count());
    w.put_f64(a.drift_t_ratio());
    put_fault(w, a.fault_config());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            w.put_u8(match a.device(r, c) {
                None => 0,
                Some(d) => {
                    if d.stored_bit() {
                        2
                    } else {
                        1
                    }
                }
            });
        }
    }
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if let Some(d) = a.device(r, c) {
                w.put_f64(d.conductance());
            }
        }
    }
}

fn get_array(r: &mut ByteReader<'_>) -> Result<CrossbarArray, ArtifactError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let params = get_device_params(r)?;
    let writes = r.u64()?;
    let t_ratio = r.f64()?;
    let fault = get_fault(r)?;
    let cells = (rows as u64).saturating_mul(cols as u64);
    let cells = usize::try_from(cells)
        .ok()
        .filter(|&n| n <= r.remaining())
        .ok_or(ArtifactError::Truncated {
            context: "crossbar cells",
        })?;
    let tags = r.bytes(cells)?;
    let mut programmed = 0usize;
    for &tag in tags {
        match tag {
            0 => {}
            1 | 2 => programmed += 1,
            tag => return Err(ArtifactError::malformed(format!("cell tag {tag}"))),
        }
    }
    let mut values = r.bytes(programmed * 8)?.chunks_exact(8);
    let devices = tags
        .iter()
        .map(|&tag| match tag {
            0 => None,
            _ => {
                let g = f64::from_le_bytes(values.next().expect("counted").try_into().expect("8"));
                Some(EpcmDevice::from_parts(tag == 2, g))
            }
        })
        .collect();
    let mut array = CrossbarArray::from_parts(rows, cols, params, devices, writes)
        .map_err(|e| ArtifactError::malformed(format!("crossbar array: {e}")))?;
    array.set_drift_t_ratio(t_ratio);
    array
        .set_fault_config(fault)
        .map_err(|e| ArtifactError::malformed(format!("crossbar fault config: {e}")))?;
    Ok(array)
}

fn put_tacitmapped(w: &mut ByteWriter, m: &TacitMapped) {
    w.put_usize(m.fan_in());
    w.put_usize(m.out_vectors());
    put_xbar_config(w, m.config());
    w.put_u64(m.steps_taken());
    w.put_f64(m.energy_j());
    let grid = m.engines();
    w.put_u32(grid.len() as u32);
    w.put_u32(grid.first().map_or(0, Vec::len) as u32);
    for row in grid {
        for engine in row {
            put_array(w, engine.array());
        }
    }
}

fn get_tacitmapped(r: &mut ByteReader<'_>) -> Result<TacitMapped, ArtifactError> {
    let m = r.usize()?;
    let n = r.usize()?;
    let cfg = get_xbar_config(r)?;
    let executions = r.u64()?;
    let energy_j = r.f64()?;
    let row_chunks = r.u32()? as usize;
    let col_chunks = r.u32()? as usize;
    let arrays = (row_chunks as u64).saturating_mul(col_chunks as u64);
    // Each serialized array is ≥ 49 bytes of fixed header alone.
    if arrays.saturating_mul(49) > r.remaining() as u64 {
        return Err(ArtifactError::Truncated {
            context: "tacitmap engine grid",
        });
    }
    let mut engines = Vec::with_capacity(row_chunks);
    for _ in 0..row_chunks {
        let mut row = Vec::with_capacity(col_chunks);
        for _ in 0..col_chunks {
            row.push(VmmEngine::with_defaults(get_array(r)?));
        }
        engines.push(row);
    }
    TacitMapped::from_parts(engines, m, n, cfg, executions, energy_j)
        .map_err(|e| ArtifactError::malformed(format!("tacitmap mapping: {e}")))
}

fn put_rng_state(w: &mut ByteWriter, s: [u64; 4]) {
    for v in s {
        w.put_u64(v);
    }
}

fn get_rng_state(r: &mut ByteReader<'_>) -> Result<[u64; 4], ArtifactError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn put_seeded(w: &mut ByteWriter, m: &SeededTacitMapped) {
    put_rng_state(w, m.rng_state());
    put_tacitmapped(w, m.inner());
}

fn get_seeded(r: &mut ByteReader<'_>) -> Result<SeededTacitMapped, ArtifactError> {
    let rng_state = get_rng_state(r)?;
    let inner = get_tacitmapped(r)?;
    Ok(SeededTacitMapped::from_parts(inner, rng_state))
}

fn put_opcm_params(w: &mut ByteWriter, p: &OpcmParams) {
    w.put_f64(p.t_high);
    w.put_f64(p.t_low);
    w.put_usize(p.levels);
    w.put_f64(p.write_sigma);
}

fn get_opcm_params(r: &mut ByteReader<'_>) -> Result<OpcmParams, ArtifactError> {
    Ok(OpcmParams {
        t_high: r.f64()?,
        t_low: r.f64()?,
        levels: r.usize()?,
        write_sigma: r.f64()?,
    })
}

// Same structure-of-arrays layout as electronic arrays: tags first,
// then a 16-byte `(level u64, transmission f64)` record per programmed
// cell in tag order.

fn put_ocrossbar(w: &mut ByteWriter, x: &OpticalCrossbar) {
    w.put_u32(x.rows() as u32);
    w.put_u32(x.cols() as u32);
    put_opcm_params(w, x.params());
    w.put_u64(x.write_count());
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            w.put_u8(u8::from(x.device(r, c).is_some()));
        }
    }
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            if let Some(d) = x.device(r, c) {
                w.put_usize(d.level());
                w.put_f64(d.transmission());
            }
        }
    }
}

fn get_ocrossbar(r: &mut ByteReader<'_>) -> Result<OpticalCrossbar, ArtifactError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let params = get_opcm_params(r)?;
    let writes = r.u64()?;
    let cells = (rows as u64).saturating_mul(cols as u64);
    let cells = usize::try_from(cells)
        .ok()
        .filter(|&n| n <= r.remaining())
        .ok_or(ArtifactError::Truncated {
            context: "optical crossbar cells",
        })?;
    let tags = r.bytes(cells)?;
    let mut programmed = 0usize;
    for &tag in tags {
        match tag {
            0 => {}
            1 => programmed += 1,
            tag => return Err(ArtifactError::malformed(format!("opcm cell tag {tag}"))),
        }
    }
    let mut values = r.bytes(programmed * 16)?.chunks_exact(16);
    let devices = tags
        .iter()
        .map(|&tag| match tag {
            0 => Ok(None),
            _ => {
                let rec = values.next().expect("counted");
                let level = u64::from_le_bytes(rec[..8].try_into().expect("8"));
                let level = usize::try_from(level).map_err(|_| {
                    ArtifactError::malformed(format!("opcm level {level} exceeds usize"))
                })?;
                let t = f64::from_le_bytes(rec[8..].try_into().expect("8"));
                Ok(Some(OpcmDevice::from_parts(level, t)))
            }
        })
        .collect::<Result<_, ArtifactError>>()?;
    OpticalCrossbar::from_parts(rows, cols, params, devices, writes)
        .map_err(|e| ArtifactError::malformed(format!("optical crossbar: {e}")))
}

fn put_receiver(w: &mut ByteWriter, rx: &Receiver) {
    w.put_f64(rx.detector.responsivity);
    w.put_f64(rx.detector.dark_current_a);
    w.put_f64(rx.tia.gain_ohm);
    w.put_f64(rx.tia.bandwidth_hz);
    w.put_f64(rx.tia.power_mw);
    w.put_f64(rx.tia.temp_k);
    w.put_f64(rx.tia.rin_db_hz);
    w.put_bool(rx.noiseless);
}

fn get_receiver(r: &mut ByteReader<'_>) -> Result<Receiver, ArtifactError> {
    Ok(Receiver {
        detector: Photodetector {
            responsivity: r.f64()?,
            dark_current_a: r.f64()?,
        },
        tia: Tia {
            gain_ohm: r.f64()?,
            bandwidth_hz: r.f64()?,
            power_mw: r.f64()?,
            temp_k: r.f64()?,
            rin_db_hz: r.f64()?,
        },
        noiseless: r.bool()?,
    })
}

fn put_optical(w: &mut ByteWriter, m: &OpticalTacitMapped) {
    w.put_usize(m.fan_in());
    w.put_usize(m.out_vectors());
    let (rows, cols) = m.xbar_shape();
    w.put_usize(rows);
    w.put_usize(cols);
    w.put_usize(m.capacity());
    w.put_u64(m.steps_taken());
    put_receiver(w, m.receiver());
    let grid = m.xbars();
    w.put_u32(grid.len() as u32);
    w.put_u32(grid.first().map_or(0, Vec::len) as u32);
    for row in grid {
        for xbar in row {
            put_ocrossbar(w, xbar);
        }
    }
}

fn get_optical(r: &mut ByteReader<'_>) -> Result<OpticalTacitMapped, ArtifactError> {
    let m = r.usize()?;
    let n = r.usize()?;
    let rows = r.usize()?;
    let cols = r.usize()?;
    let k = r.usize()?;
    let steps = r.u64()?;
    let receiver = get_receiver(r)?;
    let row_chunks = r.u32()? as usize;
    let col_chunks = r.u32()? as usize;
    let xbar_count = (row_chunks as u64).saturating_mul(col_chunks as u64);
    // Each serialized optical crossbar is ≥ 48 bytes of fixed header.
    if xbar_count.saturating_mul(48) > r.remaining() as u64 {
        return Err(ArtifactError::Truncated {
            context: "optical crossbar grid",
        });
    }
    let mut xbars = Vec::with_capacity(row_chunks);
    for _ in 0..row_chunks {
        let mut row = Vec::with_capacity(col_chunks);
        for _ in 0..col_chunks {
            row.push(get_ocrossbar(r)?);
        }
        xbars.push(row);
    }
    OpticalTacitMapped::from_parts(xbars, k, receiver, m, n, rows, cols, steps)
        .map_err(|e| ArtifactError::malformed(format!("optical mapping: {e}")))
}

// ---------------------------------------------------------------------
// Compiled-simulator codecs
// ---------------------------------------------------------------------

fn put_instruction(w: &mut ByteWriter, i: &Instruction) -> Result<(), ArtifactError> {
    match i {
        Instruction::LoadInput { dst, bits } => {
            w.put_u8(0);
            w.put_usize(*dst);
            w.put_u8(*bits);
        }
        Instruction::Mov { dst, src } => {
            w.put_u8(1);
            w.put_usize(*dst);
            w.put_usize(*src);
        }
        Instruction::Fill { dst, value, len } => {
            w.put_u8(2);
            w.put_usize(*dst);
            w.put_f64(*value);
            w.put_usize(*len);
        }
        Instruction::Const { dst, values } => {
            w.put_u8(3);
            w.put_usize(*dst);
            w.put_u32(values.len() as u32);
            for &v in values {
                w.put_f64(v);
            }
        }
        Instruction::Not { dst, src } => {
            w.put_u8(4);
            w.put_usize(*dst);
            w.put_usize(*src);
        }
        Instruction::Window {
            dst,
            src,
            channels,
            height,
            width,
            kernel,
            stride,
            pad,
            oy,
            ox,
        } => {
            w.put_u8(5);
            for v in [
                *dst, *src, *channels, *height, *width, *kernel, *stride, *pad, *oy, *ox,
            ] {
                w.put_usize(v);
            }
        }
        Instruction::Scatter {
            dst,
            src,
            out_channels,
            oh,
            ow,
            oy,
            ox,
        } => {
            w.put_u8(6);
            for v in [*dst, *src, *out_channels, *oh, *ow, *oy, *ox] {
                w.put_usize(v);
            }
        }
        Instruction::BitSlice { dst, src, bit } => {
            w.put_u8(7);
            w.put_usize(*dst);
            w.put_usize(*src);
            w.put_u8(*bit);
        }
        Instruction::ShiftAdd { dst, src, shift } => {
            w.put_u8(8);
            w.put_usize(*dst);
            w.put_usize(*src);
            w.put_i32(*shift);
        }
        Instruction::Alu { op, dst, a, b } => {
            w.put_u8(9);
            w.put_u8(match op {
                AluOp::Add => 0,
                AluOp::Sub => 1,
                AluOp::Max => 2,
            });
            w.put_usize(*dst);
            w.put_usize(*a);
            w.put_usize(*b);
        }
        Instruction::Scale { dst, src, scale } => {
            w.put_u8(10);
            w.put_usize(*dst);
            w.put_usize(*src);
            w.put_f64(*scale);
        }
        Instruction::Vmm {
            vcore,
            dst,
            pos,
            neg,
        } => {
            w.put_u8(11);
            for v in [*vcore, *dst, *pos, *neg] {
                w.put_usize(v);
            }
        }
        Instruction::Mmm { vcore, lanes } => {
            w.put_u8(12);
            w.put_usize(*vcore);
            w.put_u32(lanes.len() as u32);
            for lane in lanes {
                w.put_usize(lane.pos);
                w.put_usize(lane.neg);
                w.put_usize(lane.dst);
            }
        }
        Instruction::Threshold { dst, src, table } => {
            w.put_u8(13);
            for v in [*dst, *src, *table] {
                w.put_usize(v);
            }
        }
        Instruction::MaxPool2 {
            dst,
            src,
            channels,
            height,
            width,
        } => {
            w.put_u8(14);
            for v in [*dst, *src, *channels, *height, *width] {
                w.put_usize(v);
            }
        }
        Instruction::OutputFc { dst, src, layer } => {
            w.put_u8(15);
            for v in [*dst, *src, *layer] {
                w.put_usize(v);
            }
        }
        Instruction::Halt { result } => {
            w.put_u8(16);
            w.put_usize(*result);
        }
        // `Instruction` is non_exhaustive upstream.
        other => {
            return Err(ArtifactError::malformed(format!(
                "instruction {other} has no format-v1 encoding"
            )))
        }
    }
    Ok(())
}

fn get_instruction(r: &mut ByteReader<'_>) -> Result<Instruction, ArtifactError> {
    Ok(match r.u8()? {
        0 => Instruction::LoadInput {
            dst: r.usize()?,
            bits: r.u8()?,
        },
        1 => Instruction::Mov {
            dst: r.usize()?,
            src: r.usize()?,
        },
        2 => Instruction::Fill {
            dst: r.usize()?,
            value: r.f64()?,
            len: r.usize()?,
        },
        3 => {
            let dst = r.usize()?;
            let count = r.count(8)?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(r.f64()?);
            }
            Instruction::Const { dst, values }
        }
        4 => Instruction::Not {
            dst: r.usize()?,
            src: r.usize()?,
        },
        5 => Instruction::Window {
            dst: r.usize()?,
            src: r.usize()?,
            channels: r.usize()?,
            height: r.usize()?,
            width: r.usize()?,
            kernel: r.usize()?,
            stride: r.usize()?,
            pad: r.usize()?,
            oy: r.usize()?,
            ox: r.usize()?,
        },
        6 => Instruction::Scatter {
            dst: r.usize()?,
            src: r.usize()?,
            out_channels: r.usize()?,
            oh: r.usize()?,
            ow: r.usize()?,
            oy: r.usize()?,
            ox: r.usize()?,
        },
        7 => Instruction::BitSlice {
            dst: r.usize()?,
            src: r.usize()?,
            bit: r.u8()?,
        },
        8 => Instruction::ShiftAdd {
            dst: r.usize()?,
            src: r.usize()?,
            shift: r.i32()?,
        },
        9 => {
            let op = match r.u8()? {
                0 => AluOp::Add,
                1 => AluOp::Sub,
                2 => AluOp::Max,
                tag => return Err(ArtifactError::malformed(format!("alu op tag {tag}"))),
            };
            Instruction::Alu {
                op,
                dst: r.usize()?,
                a: r.usize()?,
                b: r.usize()?,
            }
        }
        10 => Instruction::Scale {
            dst: r.usize()?,
            src: r.usize()?,
            scale: r.f64()?,
        },
        11 => Instruction::Vmm {
            vcore: r.usize()?,
            dst: r.usize()?,
            pos: r.usize()?,
            neg: r.usize()?,
        },
        12 => {
            let vcore = r.usize()?;
            let count = r.count(24)?;
            let mut lanes = Vec::with_capacity(count);
            for _ in 0..count {
                lanes.push(MmmLane {
                    pos: r.usize()?,
                    neg: r.usize()?,
                    dst: r.usize()?,
                });
            }
            Instruction::Mmm { vcore, lanes }
        }
        13 => Instruction::Threshold {
            dst: r.usize()?,
            src: r.usize()?,
            table: r.usize()?,
        },
        14 => Instruction::MaxPool2 {
            dst: r.usize()?,
            src: r.usize()?,
            channels: r.usize()?,
            height: r.usize()?,
            width: r.usize()?,
        },
        15 => Instruction::OutputFc {
            dst: r.usize()?,
            src: r.usize()?,
            layer: r.usize()?,
        },
        16 => Instruction::Halt { result: r.usize()? },
        tag => return Err(ArtifactError::malformed(format!("instruction tag {tag}"))),
    })
}

fn put_spec(w: &mut ByteWriter, spec: &ThresholdSpec) {
    w.put_i64(spec.threshold());
    w.put_bool(spec.is_flipped());
}

fn get_spec(r: &mut ByteReader<'_>) -> Result<ThresholdSpec, ArtifactError> {
    let t = r.i64()?;
    Ok(if r.bool()? {
        ThresholdSpec::fire_below(t)
    } else {
        ThresholdSpec::fire_at_or_above(t)
    })
}

fn put_fingerprint(w: &mut ByteWriter, fp: &DesignFingerprint) {
    w.put_u8(match fp.kind {
        DesignKind::BaselineEpcm => 0,
        DesignKind::TacitMapEpcm => 1,
        DesignKind::EinsteinBarrier => 2,
    });
    w.put_usize(fp.chip.nodes);
    w.put_usize(fp.chip.tiles_per_node);
    w.put_usize(fp.chip.ecores_per_tile);
    w.put_usize(fp.chip.vcores_per_ecore);
    put_xbar_config(w, &fp.xbar);
    w.put_usize(fp.wdm_capacity);
}

fn get_fingerprint(r: &mut ByteReader<'_>) -> Result<DesignFingerprint, ArtifactError> {
    let kind = match r.u8()? {
        0 => DesignKind::BaselineEpcm,
        1 => DesignKind::TacitMapEpcm,
        2 => DesignKind::EinsteinBarrier,
        tag => return Err(ArtifactError::malformed(format!("design kind tag {tag}"))),
    };
    let chip = ChipConfig {
        nodes: r.usize()?,
        tiles_per_node: r.usize()?,
        ecores_per_tile: r.usize()?,
        vcores_per_ecore: r.usize()?,
    };
    let xbar = get_xbar_config(r)?;
    let wdm_capacity = r.usize()?;
    Ok(DesignFingerprint {
        kind,
        chip,
        xbar,
        wdm_capacity,
    })
}

fn put_compiled(w: &mut ByteWriter, c: &CompiledNetwork) -> Result<(), ArtifactError> {
    w.put_u32(c.program.len() as u32);
    for i in c.program.instructions() {
        put_instruction(w, i)?;
    }
    w.put_u32(c.vcores.len() as u32);
    for vcore in &c.vcores {
        match vcore {
            MappedVcore::Electronic(m) => {
                w.put_u8(0);
                put_tacitmapped(w, m);
            }
            MappedVcore::Optical(m) => {
                w.put_u8(1);
                put_optical(w, m);
            }
            // `MappedVcore` is non_exhaustive upstream.
            _ => {
                return Err(ArtifactError::malformed(
                    "mapped vcore variant has no format-v1 encoding",
                ))
            }
        }
    }
    w.put_u32(c.tables.len() as u32);
    for table in &c.tables {
        w.put_u32(table.len() as u32);
        for spec in table {
            put_spec(w, spec);
        }
    }
    w.put_u32(c.output_layers.len() as u32);
    for (weights, bias) in &c.output_layers {
        w.put_u32(weights.len() as u32);
        w.put_u32(weights.first().map_or(0, Vec::len) as u32);
        for row in weights {
            for &v in row {
                w.put_f32(v);
            }
        }
        for &b in bias {
            w.put_f32(b);
        }
    }
    w.put_u32(c.placements.len() as u32);
    for p in &c.placements {
        w.put_str(&p.layer);
        w.put_u32(p.crossbars.len() as u32);
        for addr in &p.crossbars {
            w.put_usize(addr.node);
            w.put_usize(addr.tile);
            w.put_usize(addr.ecore);
            w.put_usize(addr.vcore);
        }
        w.put_bool(p.oversubscribed);
    }
    w.put_u8(match c.design {
        DesignKind::BaselineEpcm => 0,
        DesignKind::TacitMapEpcm => 1,
        DesignKind::EinsteinBarrier => 2,
    });
    w.put_usize(c.wdm_capacity);
    w.put_usize(c.register_count);
    put_shape(w, c.input_shape);
    Ok(())
}

fn get_compiled(r: &mut ByteReader<'_>) -> Result<CompiledNetwork, ArtifactError> {
    let count = r.count(1)?;
    let mut instructions = Vec::with_capacity(count);
    for _ in 0..count {
        instructions.push(get_instruction(r)?);
    }
    let program = Program::from_instructions(instructions);
    let count = r.count(1)?;
    let mut vcores = Vec::with_capacity(count);
    for _ in 0..count {
        vcores.push(match r.u8()? {
            0 => MappedVcore::Electronic(get_tacitmapped(r)?),
            1 => MappedVcore::Optical(get_optical(r)?),
            tag => return Err(ArtifactError::malformed(format!("vcore tag {tag}"))),
        });
    }
    let count = r.count(4)?;
    let mut tables = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.count(9)?;
        let mut table = Vec::with_capacity(len);
        for _ in 0..len {
            table.push(get_spec(r)?);
        }
        tables.push(table);
    }
    let count = r.count(8)?;
    let mut output_layers = Vec::with_capacity(count);
    for _ in 0..count {
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let claimed = (rows as u64)
            .saturating_mul(cols as u64)
            .saturating_add(rows as u64)
            .saturating_mul(4);
        if claimed > r.remaining() as u64 {
            return Err(ArtifactError::Truncated {
                context: "compiled output layer",
            });
        }
        let mut weights = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for _ in 0..cols {
                row.push(r.f32()?);
            }
            weights.push(row);
        }
        let mut bias = Vec::with_capacity(rows);
        for _ in 0..rows {
            bias.push(r.f32()?);
        }
        output_layers.push((weights, bias));
    }
    let count = r.count(9)?;
    let mut placements = Vec::with_capacity(count);
    for _ in 0..count {
        let layer = r.str()?;
        let n = r.count(32)?;
        let mut crossbars = Vec::with_capacity(n);
        for _ in 0..n {
            crossbars.push(VcoreAddr {
                node: r.usize()?,
                tile: r.usize()?,
                ecore: r.usize()?,
                vcore: r.usize()?,
            });
        }
        let oversubscribed = r.bool()?;
        placements.push(LayerPlacement {
            layer,
            crossbars,
            oversubscribed,
        });
    }
    let design = match r.u8()? {
        0 => DesignKind::BaselineEpcm,
        1 => DesignKind::TacitMapEpcm,
        2 => DesignKind::EinsteinBarrier,
        tag => return Err(ArtifactError::malformed(format!("design kind tag {tag}"))),
    };
    let wdm_capacity = r.usize()?;
    let register_count = r.usize()?;
    let input_shape = get_shape(r)?;
    Ok(CompiledNetwork {
        program,
        vcores,
        tables,
        output_layers,
        placements,
        design,
        wdm_capacity,
        register_count,
        input_shape,
    })
}

// ---------------------------------------------------------------------
// Section codec
// ---------------------------------------------------------------------

/// Serializes a prepared-state snapshot into the section payload.
pub(crate) fn encode_prepared(p: &Prepared) -> Result<Vec<u8>, ArtifactError> {
    if p.meta.backend != p.state.backend() {
        return Err(ArtifactError::malformed(format!(
            "prepared meta says backend '{}' but the state is for '{}'",
            p.meta.backend.name(),
            p.state.backend().name()
        )));
    }
    let mut w = ByteWriter::new();
    w.put_u8(match p.meta.backend {
        PreparedBackend::Epcm => BACKEND_EPCM,
        PreparedBackend::Photonic => BACKEND_PHOTONIC,
        PreparedBackend::Simulator => BACKEND_SIMULATOR,
    });
    w.put_u64(p.meta.seed);
    w.put_bool(p.meta.noisy);
    put_opt_f64(&mut w, p.meta.drift_t_ratio);
    put_fault(&mut w, p.meta.fault.as_ref());
    match &p.state {
        PreparedState::Epcm(mats) => {
            w.put_u32(mats.len() as u32);
            for mat in mats {
                put_seeded(&mut w, mat);
            }
        }
        PreparedState::Photonic(mats) => {
            w.put_u32(mats.len() as u32);
            for mat in mats {
                put_rng_state(&mut w, mat.rng_state);
                w.put_u64(mat.lanes);
                put_optical(&mut w, &mat.mapped);
            }
        }
        PreparedState::Simulator {
            fingerprint,
            compiled,
            rng_state,
        } => {
            put_fingerprint(&mut w, fingerprint);
            put_rng_state(&mut w, *rng_state);
            put_compiled(&mut w, compiled)?;
        }
    }
    Ok(w.into_inner())
}

/// Decodes a prepared-state snapshot from its section payload.
pub(crate) fn decode_prepared(payload: &[u8]) -> Result<Prepared, ArtifactError> {
    let mut r = ByteReader::new(payload, "prepared section");
    let backend = match r.u8()? {
        BACKEND_EPCM => PreparedBackend::Epcm,
        BACKEND_PHOTONIC => PreparedBackend::Photonic,
        BACKEND_SIMULATOR => PreparedBackend::Simulator,
        tag => return Err(ArtifactError::malformed(format!("backend tag {tag}"))),
    };
    let meta = PreparedMeta {
        backend,
        seed: r.u64()?,
        noisy: r.bool()?,
        drift_t_ratio: get_opt_f64(&mut r)?,
        fault: get_fault(&mut r)?,
    };
    let state = match backend {
        PreparedBackend::Epcm => {
            let count = r.count(61)?;
            let mut mats = Vec::with_capacity(count);
            for _ in 0..count {
                mats.push(get_seeded(&mut r)?);
            }
            PreparedState::Epcm(mats)
        }
        PreparedBackend::Photonic => {
            let count = r.count(40)?;
            let mut mats = Vec::with_capacity(count);
            for _ in 0..count {
                let rng_state = get_rng_state(&mut r)?;
                let lanes = r.u64()?;
                let mapped = get_optical(&mut r)?;
                mats.push(PhotonicMat {
                    mapped,
                    rng_state,
                    lanes,
                });
            }
            PreparedState::Photonic(mats)
        }
        PreparedBackend::Simulator => {
            let fingerprint = Box::new(get_fingerprint(&mut r)?);
            let rng_state = get_rng_state(&mut r)?;
            let compiled = get_compiled(&mut r)?;
            PreparedState::Simulator {
                fingerprint,
                compiled,
                rng_state,
            }
        }
    };
    r.finish()?;
    Ok(Prepared { meta, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eb_bitnn::BitMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn weights(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        BitMatrix::from_fn(rows, cols, |_, _| rng.gen::<bool>())
    }

    fn roundtrip(p: &Prepared) -> Prepared {
        decode_prepared(&encode_prepared(p).unwrap()).unwrap()
    }

    #[test]
    fn epcm_state_round_trips_with_identical_noisy_stream() {
        let w = weights(10, 20, 1);
        let cfg = XbarConfig::new(16, 16).with_device(DeviceParams::noisy());
        let mapped = TacitMapped::program_seeded(&w, &cfg, 77).unwrap();
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Epcm,
                seed: 77,
                noisy: true,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Epcm(vec![mapped]),
        };
        let back = roundtrip(&p);
        assert_eq!(back.meta, p.meta);
        let (PreparedState::Epcm(orig), PreparedState::Epcm(rest)) = (&p.state, &back.state) else {
            panic!("state kind changed across round trip");
        };
        // Same drives through both mappings must produce identical counts
        // even on the noisy device model: conductances and the RNG
        // position are restored verbatim, never re-drawn.
        let mut a = orig[0].clone();
        let mut b = rest[0].clone();
        let pos: eb_bitnn::BitVec = (0..20).map(|i| i % 3 == 0).collect();
        let neg = pos.complement();
        for _ in 0..3 {
            assert_eq!(
                a.execute_raw(&pos, &neg).unwrap(),
                b.execute_raw(&pos, &neg).unwrap()
            );
        }
        assert_eq!(a.rng_state(), b.rng_state());
    }

    #[test]
    fn photonic_state_round_trips() {
        let w = weights(6, 12, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mapped = OpticalTacitMapped::program(&w, 16, 16, 4, &mut rng).unwrap();
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Photonic,
                seed: 5,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Photonic(vec![PhotonicMat {
                mapped,
                rng_state: [1, 2, 3, 4],
                lanes: 9,
            }]),
        };
        let back = roundtrip(&p);
        let PreparedState::Photonic(mats) = &back.state else {
            panic!("state kind changed across round trip");
        };
        assert_eq!(mats[0].rng_state, [1, 2, 3, 4]);
        assert_eq!(mats[0].lanes, 9);
        assert_eq!(mats[0].mapped.fan_in(), 12);
        assert_eq!(mats[0].mapped.out_vectors(), 6);
        assert_eq!(mats[0].mapped.capacity(), 4);
    }

    /// Encodes a photonic snapshot, overwrites the first programmed
    /// level-1 cell record (`level u64, transmission f64`) with
    /// `(level, transmission)`, and decodes the result.
    fn decode_with_crafted_opcm_cell(
        level: u64,
        transmission: f64,
    ) -> Result<Prepared, ArtifactError> {
        let mut rng = StdRng::seed_from_u64(5);
        let mapped = OpticalTacitMapped::program(&weights(6, 12, 2), 16, 16, 4, &mut rng).unwrap();
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Photonic,
                seed: 5,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Photonic(vec![PhotonicMat {
                mapped,
                rng_state: [1, 2, 3, 4],
                lanes: 0,
            }]),
        };
        let mut bytes = encode_prepared(&p).unwrap();
        let record: Vec<u8> = 1u64
            .to_le_bytes()
            .into_iter()
            .chain(OpcmParams::ideal_binary().t_high.to_le_bytes())
            .collect();
        let at = bytes
            .windows(16)
            .position(|w| w == record.as_slice())
            .expect("a programmed level-1 cell record");
        bytes[at..at + 8].copy_from_slice(&level.to_le_bytes());
        bytes[at + 8..at + 16].copy_from_slice(&transmission.to_le_bytes());
        decode_prepared(&bytes)
    }

    #[test]
    fn crafted_opcm_level_beyond_the_device_levels_is_malformed() {
        assert!(decode_with_crafted_opcm_cell(1, 0.6).is_ok());
        for level in [2, 255, u64::from(u32::MAX)] {
            assert!(
                matches!(
                    decode_with_crafted_opcm_cell(level, 0.6),
                    Err(ArtifactError::Malformed { .. })
                ),
                "level {level}"
            );
        }
    }

    #[test]
    fn crafted_opcm_transmission_outside_unit_range_is_malformed() {
        for t in [f64::NAN, f64::NEG_INFINITY, -1e-9, 1.0 + 1e-9] {
            assert!(
                matches!(
                    decode_with_crafted_opcm_cell(1, t),
                    Err(ArtifactError::Malformed { .. })
                ),
                "transmission {t}"
            );
        }
    }

    #[test]
    fn meta_backend_must_match_state() {
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Photonic,
                seed: 0,
                noisy: false,
                drift_t_ratio: None,
                fault: None,
            },
            state: PreparedState::Epcm(vec![]),
        };
        assert!(matches!(
            encode_prepared(&p),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn corrupt_backend_tag_rejected() {
        let p = Prepared {
            meta: PreparedMeta {
                backend: PreparedBackend::Epcm,
                seed: 3,
                noisy: false,
                drift_t_ratio: Some(1.5),
                fault: Some(FaultConfig::dead_cells(0.01, 4)),
            },
            state: PreparedState::Epcm(vec![]),
        };
        let mut bytes = encode_prepared(&p).unwrap();
        bytes[0] = 42;
        assert!(matches!(
            decode_prepared(&bytes),
            Err(ArtifactError::Malformed { .. })
        ));
        // And meta options survive a clean round trip.
        assert_eq!(roundtrip(&p).meta, p.meta);
    }
}
