//! HMM topologies and transition matrices.
//!
//! The paper's Viterbi decoder hardware "is able to handle multiple state
//! (3, 5, 7) HMMs and therefore can handle different acoustic models".  This
//! module provides the left-to-right Bakis topologies used for triphones and
//! the transition matrices (in the log domain) consumed by both the software
//! search and the hardware Viterbi-unit model.

use crate::AcousticError;
use asr_float::LogProb;

/// Supported numbers of *emitting* states per triphone HMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum HmmTopology {
    /// 3-state left-to-right HMM (the standard Sphinx topology).
    #[default]
    Three,
    /// 5-state left-to-right HMM.
    Five,
    /// 7-state left-to-right HMM.
    Seven,
}

impl HmmTopology {
    /// All topologies the hardware supports.
    pub const ALL: [HmmTopology; 3] = [HmmTopology::Three, HmmTopology::Five, HmmTopology::Seven];

    /// The most emitting states of any topology (the 7-state HMM).
    pub const MAX_STATES: usize = 7;

    /// Number of emitting states.
    #[inline]
    pub fn num_states(self) -> usize {
        match self {
            HmmTopology::Three => 3,
            HmmTopology::Five => 5,
            HmmTopology::Seven => 7,
        }
    }

    /// Creates a topology from a state count.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] for counts other than
    /// 3, 5 or 7 (the hardware only handles those).
    pub fn from_states(n: usize) -> Result<Self, AcousticError> {
        match n {
            3 => Ok(HmmTopology::Three),
            5 => Ok(HmmTopology::Five),
            7 => Ok(HmmTopology::Seven),
            other => Err(AcousticError::InvalidParameter(format!(
                "unsupported HMM state count {other}; hardware handles 3, 5 or 7"
            ))),
        }
    }
}

impl core::fmt::Display for HmmTopology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}-state HMM", self.num_states())
    }
}

/// A log-domain transition matrix for a left-to-right HMM.
///
/// `a[i][j]` is the log probability of moving from emitting state `i` to
/// emitting state `j`; an extra virtual column holds the exit transition from
/// each state out of the HMM (into the next triphone), matching the paper's
/// composite-HMM construction where "the exit state of one triphone is merged
/// with the entry state of another".
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    topology: HmmTopology,
    /// Row-major `(n) × (n + 1)` matrix: columns `0..n` are emitting states,
    /// column `n` is the exit.
    log_probs: Vec<LogProb>,
    /// The non-zero `(i, log a_ij)` of every destination state `j`, column
    /// after column, sources in ascending order: derived once here so a
    /// Viterbi step reads each column without scanning the whole matrix.
    incoming: Vec<(usize, LogProb)>,
    /// Column `j` is `incoming[column_starts[j]..column_starts[j + 1]]`.
    column_starts: [usize; HmmTopology::MAX_STATES + 1],
}

impl TransitionMatrix {
    /// Builds a transition matrix from linear-domain probabilities.
    ///
    /// `rows[i]` must contain `num_states + 1` probabilities (transitions to
    /// each emitting state plus the exit), each row summing to approximately 1.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] if the shape is wrong, a
    /// probability is negative/not finite, a row sums to zero, or a backward
    /// (right-to-left) transition is non-zero.
    pub fn new(topology: HmmTopology, rows: &[Vec<f64>]) -> Result<Self, AcousticError> {
        let n = topology.num_states();
        if rows.len() != n {
            return Err(AcousticError::InvalidParameter(format!(
                "expected {n} transition rows, got {}",
                rows.len()
            )));
        }
        let mut log_probs = Vec::with_capacity(n * (n + 1));
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n + 1 {
                return Err(AcousticError::InvalidParameter(format!(
                    "row {i} must have {} entries (states + exit), got {}",
                    n + 1,
                    row.len()
                )));
            }
            if row.iter().any(|&p| !p.is_finite() || p < 0.0) {
                return Err(AcousticError::InvalidParameter(format!(
                    "row {i} contains a negative or non-finite probability"
                )));
            }
            let sum: f64 = row.iter().sum();
            if sum <= 0.0 {
                return Err(AcousticError::InvalidParameter(format!(
                    "row {i} sums to zero"
                )));
            }
            for (j, &p) in row.iter().enumerate() {
                if j < n && j < i && p > 0.0 {
                    return Err(AcousticError::InvalidParameter(format!(
                        "backward transition {i}->{j} not allowed in left-to-right HMM"
                    )));
                }
                log_probs.push(LogProb::from_linear(p / sum));
            }
        }
        let mut incoming = Vec::new();
        let mut column_starts = [0; HmmTopology::MAX_STATES + 1];
        for j in 0..n {
            incoming.extend(
                (0..n)
                    .map(|i| (i, log_probs[i * (n + 1) + j]))
                    .filter(|(_, p)| !p.is_zero()),
            );
            column_starts[j + 1] = incoming.len();
        }
        Ok(TransitionMatrix {
            topology,
            log_probs,
            incoming,
            column_starts,
        })
    }

    /// The canonical Bakis topology used when no trained transitions are
    /// available: each state has a self-loop probability `self_loop`, moves to
    /// the next state with `1 − self_loop`, and the last state exits with
    /// `1 − self_loop`.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticError::InvalidParameter`] unless `0 < self_loop < 1`.
    pub fn bakis(topology: HmmTopology, self_loop: f64) -> Result<Self, AcousticError> {
        if !(0.0..1.0).contains(&self_loop) || self_loop == 0.0 {
            return Err(AcousticError::InvalidParameter(format!(
                "self-loop probability {self_loop} must be in (0, 1)"
            )));
        }
        let n = topology.num_states();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0f64; n + 1];
                row[i] = self_loop;
                if i + 1 < n {
                    row[i + 1] = 1.0 - self_loop;
                } else {
                    row[n] = 1.0 - self_loop;
                }
                row
            })
            .collect();
        Self::new(topology, &rows)
    }

    /// The topology of this matrix.
    pub fn topology(&self) -> HmmTopology {
        self.topology
    }

    /// Number of emitting states.
    pub fn num_states(&self) -> usize {
        self.topology.num_states()
    }

    /// Log transition probability from state `i` to state `j`
    /// (both emitting states).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn log_prob(&self, i: usize, j: usize) -> LogProb {
        let n = self.num_states();
        assert!(i < n && j < n, "state index out of range");
        self.log_probs[i * (n + 1) + j]
    }

    /// Log probability of exiting the HMM from state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn log_exit_prob(&self, i: usize) -> LogProb {
        let n = self.num_states();
        assert!(i < n, "state index out of range");
        self.log_probs[i * (n + 1) + n]
    }

    /// The incoming transitions of state `j`: every `(i, log a_ij)` with a
    /// non-zero probability, in ascending `i`.  This is the "matrix column"
    /// the hardware Viterbi unit streams per destination state.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, LogProb)> + '_ {
        assert!(j < self.num_states(), "state index out of range");
        self.incoming[self.column_starts[j]..self.column_starts[j + 1]]
            .iter()
            .copied()
    }

    /// Expected number of frames spent in this HMM (sum over states of
    /// `1 / (1 − self_loop_i)`), used by the corpus synthesiser to pick
    /// realistic durations.
    pub fn expected_duration_frames(&self) -> f64 {
        (0..self.num_states())
            .map(|i| {
                let stay = self.log_prob(i, i).to_linear();
                1.0 / (1.0 - stay).max(1.0e-6)
            })
            .sum()
    }

    /// Number of stored transition parameters (`n × (n+1)`).
    pub fn param_count(&self) -> usize {
        self.num_states() * (self.num_states() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn topology_state_counts() {
        assert_eq!(HmmTopology::Three.num_states(), 3);
        assert_eq!(HmmTopology::Five.num_states(), 5);
        assert_eq!(HmmTopology::Seven.num_states(), 7);
        assert_eq!(HmmTopology::default(), HmmTopology::Three);
        assert_eq!(HmmTopology::from_states(5).unwrap(), HmmTopology::Five);
        assert!(HmmTopology::from_states(4).is_err());
        assert_eq!(HmmTopology::ALL.len(), 3);
        assert_eq!(format!("{}", HmmTopology::Seven), "7-state HMM");
    }

    #[test]
    fn bakis_structure() {
        let t = TransitionMatrix::bakis(HmmTopology::Three, 0.6).unwrap();
        assert_eq!(t.num_states(), 3);
        assert_eq!(t.topology(), HmmTopology::Three);
        // Self-loops.
        for i in 0..3 {
            assert!((t.log_prob(i, i).to_linear() - 0.6).abs() < 1e-6);
        }
        // Forward transitions.
        assert!((t.log_prob(0, 1).to_linear() - 0.4).abs() < 1e-6);
        assert!((t.log_prob(1, 2).to_linear() - 0.4).abs() < 1e-6);
        // No skips or backward transitions.
        assert!(t.log_prob(0, 2).is_zero());
        assert!(t.log_prob(2, 0).is_zero());
        assert!(t.log_prob(1, 0).is_zero());
        // Exit only from the last state.
        assert!(t.log_exit_prob(0).is_zero());
        assert!(t.log_exit_prob(1).is_zero());
        assert!((t.log_exit_prob(2).to_linear() - 0.4).abs() < 1e-6);
        assert_eq!(t.param_count(), 12);
    }

    #[test]
    fn bakis_rejects_bad_self_loop() {
        assert!(TransitionMatrix::bakis(HmmTopology::Three, 0.0).is_err());
        assert!(TransitionMatrix::bakis(HmmTopology::Three, 1.0).is_err());
        assert!(TransitionMatrix::bakis(HmmTopology::Three, -0.1).is_err());
        assert!(TransitionMatrix::bakis(HmmTopology::Three, 1.5).is_err());
    }

    #[test]
    fn custom_matrix_validation() {
        // Wrong row count.
        assert!(TransitionMatrix::new(HmmTopology::Three, &[vec![1.0; 4]]).is_err());
        // Wrong row width.
        assert!(TransitionMatrix::new(
            HmmTopology::Three,
            &[vec![1.0; 3], vec![1.0; 4], vec![1.0; 4]]
        )
        .is_err());
        // Negative probability.
        assert!(TransitionMatrix::new(
            HmmTopology::Three,
            &[
                vec![-0.5, 0.5, 0.0, 0.0],
                vec![0.0, 0.5, 0.5, 0.0],
                vec![0.0, 0.0, 0.5, 0.5]
            ]
        )
        .is_err());
        // Backward transition.
        assert!(TransitionMatrix::new(
            HmmTopology::Three,
            &[
                vec![0.5, 0.5, 0.0, 0.0],
                vec![0.2, 0.3, 0.5, 0.0],
                vec![0.0, 0.0, 0.5, 0.5]
            ]
        )
        .is_err());
        // Zero row.
        assert!(TransitionMatrix::new(
            HmmTopology::Three,
            &[
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.5, 0.5, 0.0],
                vec![0.0, 0.0, 0.5, 0.5]
            ]
        )
        .is_err());
    }

    #[test]
    fn rows_are_normalised() {
        let t = TransitionMatrix::new(
            HmmTopology::Three,
            &[
                vec![2.0, 2.0, 0.0, 0.0],
                vec![0.0, 1.0, 3.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
            ],
        )
        .unwrap();
        assert!((t.log_prob(0, 0).to_linear() - 0.5).abs() < 1e-6);
        assert!((t.log_prob(1, 2).to_linear() - 0.75).abs() < 1e-6);
        assert!((t.log_exit_prob(2).to_linear() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn columns_list_incoming_transitions() {
        let t = TransitionMatrix::bakis(HmmTopology::Five, 0.5).unwrap();
        let col0: Vec<_> = t.column(0).collect();
        assert_eq!(col0, vec![(0, t.log_prob(0, 0))]);
        let col2: Vec<_> = t.column(2).collect();
        assert_eq!(col2.len(), 2); // from state 1 (forward) and 2 (self)
        assert!(col2.iter().any(|&(i, _)| i == 1));
        assert!(col2.iter().any(|&(i, _)| i == 2));
    }

    #[test]
    fn max_states_bounds_every_topology() {
        let most = HmmTopology::ALL.iter().map(|t| t.num_states()).max();
        assert_eq!(most, Some(HmmTopology::MAX_STATES));
    }

    #[test]
    fn expected_duration_grows_with_self_loop() {
        let short = TransitionMatrix::bakis(HmmTopology::Three, 0.3).unwrap();
        let long = TransitionMatrix::bakis(HmmTopology::Three, 0.8).unwrap();
        assert!(long.expected_duration_frames() > short.expected_duration_frames());
        // 3 states with self-loop 0.5 → ~2 frames each → 6 frames.
        let mid = TransitionMatrix::bakis(HmmTopology::Three, 0.5).unwrap();
        assert!((mid.expected_duration_frames() - 6.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let t = TransitionMatrix::bakis(HmmTopology::Three, 0.5).unwrap();
        let _ = t.log_prob(3, 0);
    }

    proptest! {
        /// The derived columns hold exactly the non-zero entries a scan of
        /// the matrix finds, in source order, for any left-to-right matrix.
        #[test]
        fn prop_columns_are_the_nonzero_entries_of_a_scan(
            states in 0usize..3,
            cells in proptest::collection::vec(0u8..4, 56),
        ) {
            let topology = HmmTopology::ALL[states];
            let n = topology.num_states();
            // A quarter of the cells are zero; the exit keeps rows non-empty.
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..=n)
                        .map(|j| match j {
                            j if j == n => 1.0,
                            j if j < i => 0.0,
                            j => f64::from(cells[i * 8 + j]),
                        })
                        .collect()
                })
                .collect();
            let t = TransitionMatrix::new(topology, &rows).unwrap();
            for j in 0..n {
                let scanned: Vec<_> = (0..n)
                    .map(|i| (i, t.log_prob(i, j)))
                    .filter(|(_, p)| !p.is_zero())
                    .collect();
                prop_assert_eq!(t.column(j).collect::<Vec<_>>(), scanned);
            }
        }

        #[test]
        fn prop_bakis_rows_sum_to_one(self_loop in 0.05f64..0.95) {
            for topo in HmmTopology::ALL {
                let t = TransitionMatrix::bakis(topo, self_loop).unwrap();
                for i in 0..t.num_states() {
                    let mut sum = 0.0;
                    for j in 0..t.num_states() {
                        sum += t.log_prob(i, j).to_linear();
                    }
                    sum += t.log_exit_prob(i).to_linear();
                    prop_assert!((sum - 1.0).abs() < 1e-6);
                }
            }
        }
    }
}
