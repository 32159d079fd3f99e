//! The optical crossbar: an oPCM device grid performing WDM-parallel
//! matrix–matrix multiplication (the paper's MMM, Fig. 5-(b)).
//!
//! Each wavelength carries one input vector; every device attenuates all
//! wavelengths identically (GST absorption is broadband across the C
//! band); per-column wavelength demultiplexing recovers one accumulated
//! popcount per (wavelength, column) pair in a single time step.

use crate::error::PhotonicsError;
use crate::opcm::{OpcmDevice, OpcmParams};
use crate::receiver::Receiver;
use crate::transmitter::WdmFrame;
use eb_bitnn::BitMatrix;
use rand::Rng;

/// Level tag of a cell that was never programmed; a programmed cell at
/// level `l` stores tag `l + 1`.
const UNPROGRAMMED: u16 = 0;

/// An optical crossbar of binary oPCM devices.
///
/// The device grid has one store, split into two row-major arrays that
/// [`OpticalCrossbar::program_bit`] and [`OpticalCrossbar::from_parts`]
/// keep in sync:
///
/// * the `f64` transmission of every cell, pristine (unprogrammed)
///   cells holding `t_high` because amorphous GST is transparent — the
///   array [`OpticalCrossbar::mmm_counts`] reads;
/// * a 2-byte level tag per cell (`0` = unprogrammed, `l + 1` = level
///   `l`) for [`OpticalCrossbar::device`], the stored bits and
///   serialization.
///
/// **Accumulation contract.** Each column's power for lane `k` is
/// `Σ_r p[k][r] · T[r][c]`, added in row order `r = 0..rows` from
/// `-0.0` (as `Iterator::sum` does) with a plain multiply and add — no
/// fused multiply-add. The kernel walks rows in the outer loop and
/// updates every lane's column sums in the inner loops, so it
/// vectorises across columns and streams the transmission grid once per
/// call, yet every sum is bit-identical to the per-column serial chain.
/// Receiver reads stay in lane-major, column-minor order, one per
/// physical column, so a noisy receiver draws the same RNG stream.
///
/// **Shared pristine chain.** The crossbar tracks `live_cols`, one past
/// the highest column any device was ever stored into (by
/// [`OpticalCrossbar::program_bit`] or [`OpticalCrossbar::from_parts`]).
/// Every column from `live_cols` on is unprogrammed in every row, so it
/// holds `t_high` throughout and its row-order sum `Σ_r p[k][r] · t_high`
/// is the same `f64` for all of them. The kernel walks the grid only over
/// columns `0..live_cols` and sums that one chain per lane (seeded with
/// `-0.0`, same row order, plain multiply and add), then copies it into
/// the remaining columns — bit-identical to summing each of them. A
/// TacitMap layer whose outputs fill half of its last column chunk thus
/// skips half of that crossbar's work.
///
/// # Examples
///
/// ```
/// use eb_photonics::{OpticalCrossbar, OpcmParams, Transmitter, Receiver};
/// use eb_bitnn::{BitMatrix, BitVec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut xbar = OpticalCrossbar::new(4, 2, OpcmParams::ideal_binary());
/// xbar.program_matrix(&BitMatrix::from_fn(4, 2, |r, _| r % 2 == 0), &mut rng)?;
/// let tx = Transmitter::with_capacity(4);
/// let frame = tx.encode(&[BitVec::ones(4)])?;
/// let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut rng)?;
/// assert_eq!(counts, vec![vec![2, 2]]);
/// # Ok::<(), eb_photonics::PhotonicsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OpticalCrossbar {
    rows: usize,
    cols: usize,
    params: OpcmParams,
    /// Row-major cell transmissions; unprogrammed cells hold `t_high`.
    transmissions: Vec<f64>,
    /// Row-major level tags ([`UNPROGRAMMED`] or `level + 1`).
    level_tags: Vec<u16>,
    /// One past the highest column holding a programmed level tag:
    /// columns `live_cols..cols` are pristine in every row.
    live_cols: usize,
    writes: u64,
}

impl OpticalCrossbar {
    /// Creates an unprogrammed optical crossbar.
    pub fn new(rows: usize, cols: usize, params: OpcmParams) -> Self {
        Self {
            rows,
            cols,
            transmissions: vec![params.t_high; rows * cols],
            level_tags: vec![UNPROGRAMMED; rows * cols],
            live_cols: 0,
            params,
            writes: 0,
        }
    }

    /// Approximate resident bytes of this crossbar (struct plus the
    /// transmission and level-tag arrays) — the memory-accounting
    /// surface for shared-weight replica telemetry.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.transmissions.capacity() * std::mem::size_of::<f64>()
            + self.level_tags.capacity() * std::mem::size_of::<u16>()
    }

    /// Rows (input waveguides).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (output waveguides).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Device parameters.
    pub fn params(&self) -> &OpcmParams {
        &self.params
    }

    /// Total device writes (endurance accounting).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// The device at `(r, c)`, or `None` if unprogrammed or out of range.
    pub fn device(&self, r: usize, c: usize) -> Option<OpcmDevice> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let i = self.idx(r, c);
        match self.level_tags[i] {
            UNPROGRAMMED => None,
            tag => Some(OpcmDevice::from_parts(
                usize::from(tag - 1),
                self.transmissions[i],
            )),
        }
    }

    /// Rebuilds a crossbar from serialized state: the exact device grid
    /// (row-major, `None` for unprogrammed cells) and write counter a
    /// previously programmed crossbar held. Restoring is not a re-program
    /// — no RNG draws happen and no writes are counted.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::DimensionMismatch`] when the grid length
    /// differs from `rows * cols`, [`PhotonicsError::InvalidLevel`] for a
    /// device level `params` cannot program, and
    /// [`PhotonicsError::InvalidTransmission`] for a device transmission
    /// that is not a finite value in `[0, 1]`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        params: OpcmParams,
        devices: Vec<Option<OpcmDevice>>,
        writes: u64,
    ) -> Result<Self, PhotonicsError> {
        if devices.len() != rows * cols {
            return Err(PhotonicsError::DimensionMismatch {
                what: "restored device grid",
                expected: rows * cols,
                got: devices.len(),
            });
        }
        let mut xbar = Self::new(rows, cols, params);
        xbar.writes = writes;
        for (i, device) in devices.iter().enumerate() {
            let Some(d) = device else { continue };
            let (r, c) = (i / cols, i % cols);
            if !(0.0..=1.0).contains(&d.transmission()) {
                return Err(PhotonicsError::InvalidTransmission {
                    row: r,
                    col: c,
                    transmission: d.transmission(),
                });
            }
            xbar.store(r, c, d)?;
        }
        Ok(xbar)
    }

    fn idx(&self, r: usize, c: usize) -> usize {
        r * self.cols + c
    }

    /// Writes one device into both arrays, rejecting a level `params`
    /// cannot program or the level tags cannot hold.
    fn store(&mut self, r: usize, c: usize, d: &OpcmDevice) -> Result<(), PhotonicsError> {
        let tag = Some(d.level())
            .filter(|&l| l < self.params.levels)
            .and_then(|l| u16::try_from(l + 1).ok())
            .ok_or(PhotonicsError::InvalidLevel {
                level: d.level(),
                levels: self.params.levels,
            })?;
        let i = self.idx(r, c);
        self.level_tags[i] = tag;
        self.transmissions[i] = d.transmission();
        self.live_cols = self.live_cols.max(c + 1);
        Ok(())
    }

    /// Programs one device to a binary state.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::OutOfBounds`] outside the array and
    /// [`PhotonicsError::InvalidLevel`] when the top level of
    /// `params.levels` exceeds the level-tag range (65 534).
    pub fn program_bit(
        &mut self,
        r: usize,
        c: usize,
        bit: bool,
        rng: &mut impl Rng,
    ) -> Result<(), PhotonicsError> {
        if r >= self.rows || c >= self.cols {
            return Err(PhotonicsError::OutOfBounds {
                row: r,
                col: c,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let device = OpcmDevice::program_bit(bit, &self.params, rng);
        self.store(r, c, &device)?;
        self.writes += 1;
        Ok(())
    }

    /// Programs a bit matrix anchored at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::OutOfBounds`] if the matrix exceeds the
    /// array.
    pub fn program_matrix(
        &mut self,
        bits: &BitMatrix,
        rng: &mut impl Rng,
    ) -> Result<(), PhotonicsError> {
        if bits.rows() > self.rows || bits.cols() > self.cols {
            return Err(PhotonicsError::OutOfBounds {
                row: bits.rows(),
                col: bits.cols(),
                rows: self.rows,
                cols: self.cols,
            });
        }
        for r in 0..bits.rows() {
            for c in 0..bits.cols() {
                self.program_bit(r, c, bits.get(r, c) == Some(true), rng)?;
            }
        }
        Ok(())
    }

    /// Stored bit of a device (`None` if unprogrammed or out of range).
    pub fn stored_bit(&self, r: usize, c: usize) -> Option<bool> {
        self.device(r, c).as_ref().map(OpcmDevice::stored_bit)
    }

    /// Optical power (mW) reaching each column, lane-major:
    /// `powers[k * cols + c]` for lane `k`, under the accumulation
    /// contract in the type docs.
    fn column_powers(&self, frame: &WdmFrame) -> Vec<f64> {
        let (cols, live) = (self.cols, self.live_cols);
        let t_high = self.params.t_high;
        let lanes = frame.powers();
        let mut sums = vec![-0.0; lanes.len() * cols];
        // One chain per lane stands in for every pristine column.
        let mut pristine = vec![-0.0; lanes.len()];
        for r in 0..self.rows {
            let t_row = &self.transmissions[r * cols..r * cols + live];
            for (k, row_powers) in lanes.iter().enumerate() {
                let p = row_powers[r];
                for (sum, &t) in sums[k * cols..k * cols + live].iter_mut().zip(t_row) {
                    *sum += p * t;
                }
                pristine[k] += p * t_high;
            }
        }
        for (k, &power) in pristine.iter().enumerate() {
            sums[k * cols + live..(k + 1) * cols].fill(power);
        }
        sums
    }

    /// One WDM MMM step: all wavelengths of `frame` traverse the crossbar
    /// simultaneously; returns `counts[k][c]` = recovered AND-accumulation
    /// of input `k` against column `c`.
    ///
    /// The readout is offset-calibrated: the controller knows each input's
    /// popcount, so the `t_low` leakage of crystalline devices is
    /// subtracted before rounding (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::DimensionMismatch`] if the frame row count
    /// differs from the crossbar rows.
    pub fn mmm_counts(
        &self,
        frame: &WdmFrame,
        receiver: &Receiver,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<u32>>, PhotonicsError> {
        if frame.rows() != self.rows {
            return Err(PhotonicsError::DimensionMismatch {
                what: "WDM frame rows",
                expected: self.rows,
                got: frame.rows(),
            });
        }
        let powers = self.column_powers(frame);
        let p_on = frame.on_power_mw();
        let unit_v = receiver.tia.gain_ohm
            * receiver.detector.responsivity
            * (p_on * 1e-3)
            * (self.params.t_high - self.params.t_low);
        // Subtract the known offsets: dark current and the t_low leakage
        // of the input's active rows.
        let v_dark = receiver.tia.gain_ohm * receiver.detector.dark_current_a;
        let out = (0..frame.wavelengths())
            .map(|k| {
                let v_leak = receiver.tia.gain_ohm
                    * receiver.detector.responsivity
                    * (p_on * 1e-3)
                    * self.params.t_low
                    * frame.active_rows(k) as f64;
                powers[k * self.cols..(k + 1) * self.cols]
                    .iter()
                    .map(|&power_mw| {
                        let v = receiver.receive_mw(power_mw, rng);
                        let count = ((v - v_dark - v_leak) / unit_v).round();
                        count.clamp(0.0, self.rows as f64) as u32
                    })
                    .collect()
            })
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transmitter::Transmitter;
    use eb_bitnn::{ops, BitVec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    /// The per-device reference walk the lane-major kernel replaced:
    /// every column summed as its own serial chain over
    /// [`OpticalCrossbar::device`]. Returns the lane-major column powers
    /// and the counts.
    fn reference_walk(
        xbar: &OpticalCrossbar,
        frame: &WdmFrame,
        receiver: &Receiver,
        rng: &mut impl Rng,
    ) -> (Vec<f64>, Vec<Vec<u32>>) {
        let transmission = |r: usize, c: usize| match xbar.device(r, c) {
            Some(d) => d.transmission(),
            None => xbar.params.t_high,
        };
        let p_on = frame.on_power_mw();
        let unit_v = receiver.tia.gain_ohm
            * receiver.detector.responsivity
            * (p_on * 1e-3)
            * (xbar.params.t_high - xbar.params.t_low);
        let mut powers = Vec::new();
        let mut out = Vec::new();
        for (k, row_powers) in frame.powers().iter().enumerate() {
            let mut counts = Vec::new();
            for c in 0..xbar.cols {
                let power_mw: f64 = (0..xbar.rows)
                    .map(|r| row_powers[r] * transmission(r, c))
                    .sum();
                powers.push(power_mw);
                let v = receiver.receive_mw(power_mw, rng);
                let v_dark = receiver.tia.gain_ohm * receiver.detector.dark_current_a;
                let v_leak = receiver.tia.gain_ohm
                    * receiver.detector.responsivity
                    * (p_on * 1e-3)
                    * xbar.params.t_low
                    * frame.active_rows(k) as f64;
                let count = ((v - v_dark - v_leak) / unit_v).round();
                counts.push(count.clamp(0.0, xbar.rows as f64) as u32);
            }
            out.push(counts);
        }
        (powers, out)
    }

    /// A seeded random grid: multi-level noisy devices on some seeds, a
    /// programmed sub-rectangle that leaves unprogrammed cells, and on
    /// odd seeds a copy restored through `from_parts`.
    fn random_grid(seed: u64) -> OpticalCrossbar {
        let mut g = StdRng::seed_from_u64(seed);
        let (rows, cols) = (g.gen_range(1..80), g.gen_range(1..40));
        let params = match seed % 3 {
            0 => OpcmParams::ideal_binary(),
            1 => OpcmParams::with_levels(4, 0.03),
            _ => OpcmParams::with_levels(2, 0.05),
        };
        let mut xbar = OpticalCrossbar::new(rows, cols, params);
        let bits = BitMatrix::from_fn(g.gen_range(0..=rows), g.gen_range(0..=cols), |_, _| {
            g.gen::<bool>()
        });
        xbar.program_matrix(&bits, &mut g).unwrap();
        if seed % 2 == 1 {
            xbar = restored(&xbar);
        }
        xbar
    }

    /// Restores `xbar` through `from_parts` from its device view.
    fn restored(xbar: &OpticalCrossbar) -> OpticalCrossbar {
        let (rows, cols) = (xbar.rows(), xbar.cols());
        let devices = (0..rows * cols)
            .map(|i| xbar.device(i / cols, i % cols))
            .collect();
        OpticalCrossbar::from_parts(rows, cols, xbar.params.clone(), devices, 0).unwrap()
    }

    /// Asserts the kernel's powers, counts and noisy RNG position on a
    /// random WDM frame equal the per-device walk's, bit for bit.
    fn assert_matches_reference_walk(xbar: &OpticalCrossbar, seed: u64) {
        let mut high_noise = Receiver::noisy();
        high_noise.tia.rin_db_hz = -130.0;
        let mut g = StdRng::seed_from_u64(seed ^ 0xF00D);
        let lanes = g.gen_range(1..=16);
        let drives: Vec<BitVec> = (0..lanes)
            .map(|_| (0..xbar.rows()).map(|_| g.gen::<bool>()).collect())
            .collect();
        let frame = Transmitter::with_capacity(16).encode(&drives).unwrap();
        let want_powers = reference_walk(xbar, &frame, &Receiver::ideal(), &mut g).0;
        let got_powers = xbar.column_powers(&frame);
        assert_eq!(
            got_powers.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            want_powers.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "seed {seed}: column powers"
        );
        for rx in [Receiver::ideal(), Receiver::noisy(), high_noise] {
            let mut r_new = StdRng::seed_from_u64(seed);
            let mut r_ref = r_new.clone();
            let got = xbar.mmm_counts(&frame, &rx, &mut r_new).unwrap();
            let want = reference_walk(xbar, &frame, &rx, &mut r_ref).1;
            assert_eq!(got, want, "seed {seed}: counts");
            assert_eq!(
                r_new.gen::<u64>(),
                r_ref.gen::<u64>(),
                "seed {seed}: RNG position"
            );
        }
    }

    #[test]
    fn lane_major_kernel_matches_the_per_device_walk_bit_for_bit() {
        for seed in 0..60u64 {
            assert_matches_reference_walk(&random_grid(seed), seed);
        }
    }

    #[test]
    fn shared_pristine_chain_matches_the_per_device_walk_bit_for_bit() {
        for seed in 0..12u64 {
            let mut g = StdRng::seed_from_u64(seed);
            let (rows, cols) = (g.gen_range(1..80), g.gen_range(2..40));
            let params = if seed % 2 == 0 {
                OpcmParams::ideal_binary()
            } else {
                OpcmParams::with_levels(4, 0.03)
            };

            let pristine = OpticalCrossbar::new(rows, cols, params.clone());
            assert_eq!(pristine.live_cols, 0);
            assert_matches_reference_walk(&pristine, seed);

            // A programmed prefix of columns leaves a pristine suffix.
            let mut partial = OpticalCrossbar::new(rows, cols, params.clone());
            let live = g.gen_range(1..cols);
            let bits = BitMatrix::from_fn(g.gen_range(1..=rows), live, |_, _| g.gen::<bool>());
            partial.program_matrix(&bits, &mut g).unwrap();
            assert_eq!(partial.live_cols, live);
            assert_matches_reference_walk(&partial, seed);

            // One cell in the last column makes every column live.
            let mut last = OpticalCrossbar::new(rows, cols, params.clone());
            last.program_bit(g.gen_range(0..rows), cols - 1, g.gen::<bool>(), &mut g)
                .unwrap();
            assert_eq!(last.live_cols, cols);
            assert_matches_reference_walk(&last, seed);

            let back = restored(&partial);
            assert_eq!(back.live_cols, partial.live_cols);
            assert_matches_reference_walk(&back, seed);
        }
    }

    #[test]
    fn device_view_round_trips_through_from_parts() {
        let xbar = random_grid(4);
        let (rows, cols) = (xbar.rows(), xbar.cols());
        let devices: Vec<_> = (0..rows * cols)
            .map(|i| xbar.device(i / cols, i % cols))
            .collect();
        assert!(devices.iter().any(Option::is_none));
        let back = OpticalCrossbar::from_parts(rows, cols, xbar.params.clone(), devices.clone(), 3)
            .unwrap();
        assert_eq!(back.write_count(), 3);
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(&back.device(i / cols, i % cols), d);
        }
        assert_eq!(back.approx_bytes(), xbar.approx_bytes());
    }

    #[test]
    fn from_parts_rejects_unprogrammable_levels_and_transmissions() {
        let params = OpcmParams::with_levels(4, 0.0);
        let restore = |d: OpcmDevice| {
            OpticalCrossbar::from_parts(1, 2, params.clone(), vec![None, Some(d)], 0)
        };
        assert!(restore(OpcmDevice::from_parts(3, 0.6)).is_ok());
        assert!(matches!(
            restore(OpcmDevice::from_parts(4, 0.6)),
            Err(PhotonicsError::InvalidLevel {
                level: 4,
                levels: 4
            })
        ));
        for t in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(
                matches!(
                    restore(OpcmDevice::from_parts(1, t)),
                    Err(PhotonicsError::InvalidTransmission { row: 0, col: 1, .. })
                ),
                "transmission {t}"
            );
        }
    }

    #[test]
    fn single_wavelength_vmm_matches_and_accumulate() {
        let mut r = rng();
        let bits = BitMatrix::from_fn(8, 3, |a, b| (a * 3 + b) % 4 != 1);
        let mut xbar = OpticalCrossbar::new(8, 3, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(4);
        let v = BitVec::from_bools(&[true, false, true, true, false, false, true, true]);
        let frame = tx.encode(std::slice::from_ref(&v)).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for c in 0..3 {
            assert_eq!(counts[0][c], v.and(&bits.col(c)).popcount(), "col {c}");
        }
    }

    #[test]
    fn wdm_mmm_equals_stacked_vmms() {
        // The core WDM claim (Fig. 5): K vectors in one step produce the
        // same counts as K sequential single-vector steps.
        let mut r = rng();
        let bits = BitMatrix::from_fn(16, 5, |a, b| (a + 7 * b) % 3 == 0);
        let mut xbar = OpticalCrossbar::new(16, 5, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(4);
        let vs: Vec<BitVec> = (0..4)
            .map(|k| {
                BitVec::from_bools(&(0..16).map(|i| (i * (k + 2)) % 5 < 2).collect::<Vec<_>>())
            })
            .collect();
        let frame = tx.encode(&vs).unwrap();
        let mmm = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for (k, v) in vs.iter().enumerate() {
            let single = tx.encode(std::slice::from_ref(v)).unwrap();
            let vmm = xbar
                .mmm_counts(&single, &Receiver::ideal(), &mut r)
                .unwrap();
            assert_eq!(mmm[k], vmm[0], "wavelength {k}");
        }
    }

    #[test]
    fn tacitmap_on_opcm_recovers_xnor_popcount() {
        // Full stack: TacitMap column layout + WDM input = Fig. 5-(b).
        let mut r = rng();
        let w = BitVec::from_bools(&[true, false, false, true, true]);
        let column = w.concat(&w.complement());
        let bits = BitMatrix::from_fn(10, 1, |row, _| column.get(row) == Some(true));
        let mut xbar = OpticalCrossbar::new(10, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(8);
        let inputs: Vec<BitVec> = (0..3)
            .map(|k| {
                BitVec::from_bools(&(0..5).map(|i| (i + k) % 2 == 0).collect::<Vec<_>>())
                    .with_complement()
            })
            .collect();
        let frame = tx.encode(&inputs).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        for (k, _) in inputs.iter().enumerate() {
            let v = BitVec::from_bools(&(0..5).map(|i| (i + k) % 2 == 0).collect::<Vec<_>>());
            assert_eq!(counts[k][0], ops::xnor_popcount(&v, &w), "input {k}");
        }
    }

    #[test]
    fn full_size_column_reads_exactly() {
        // 256 rows (128-bit chunks + complement) must still read exactly
        // under the high-extinction defaults.
        let mut r = rng();
        let w = BitVec::from_bools(&(0..128).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let column = w.concat(&w.complement());
        let bits = BitMatrix::from_fn(256, 1, |row, _| column.get(row) == Some(true));
        let mut xbar = OpticalCrossbar::new(256, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(16);
        let v = BitVec::from_bools(&(0..128).map(|i| i % 2 == 0).collect::<Vec<_>>());
        let frame = tx.encode(&[v.with_complement()]).unwrap();
        let counts = xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r).unwrap();
        assert_eq!(counts[0][0], ops::xnor_popcount(&v, &w));
    }

    #[test]
    fn dimension_and_bounds_errors() {
        let mut r = rng();
        let mut xbar = OpticalCrossbar::new(4, 2, OpcmParams::ideal_binary());
        assert!(xbar.program_bit(4, 0, true, &mut r).is_err());
        let tx = Transmitter::with_capacity(2);
        let frame = tx.encode(&[BitVec::ones(3)]).unwrap();
        assert!(matches!(
            xbar.mmm_counts(&frame, &Receiver::ideal(), &mut r),
            Err(PhotonicsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn noisy_receiver_stays_close() {
        let mut r = rng();
        let bits = BitMatrix::from_fn(32, 1, |a, _| a % 2 == 0);
        let mut xbar = OpticalCrossbar::new(32, 1, OpcmParams::ideal_binary());
        xbar.program_matrix(&bits, &mut r).unwrap();
        let tx = Transmitter::with_capacity(2);
        let frame = tx.encode(&[BitVec::ones(32)]).unwrap();
        let noisy = xbar.mmm_counts(&frame, &Receiver::noisy(), &mut r).unwrap();
        assert!(
            (i64::from(noisy[0][0]) - 16).abs() <= 3,
            "count {}",
            noisy[0][0]
        );
    }
}
