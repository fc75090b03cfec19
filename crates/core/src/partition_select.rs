//! KNN-based data-partitioning selection (paper §5, "Selection mechanism").
//!
//! The paper trains a K-nearest-neighbour classifier to predict the best of
//! the three Figure-11 partitioning schemes per layer, using "the
//! dimensions of dX, dW, and dY as features", a random 80/20
//! workload split, and 1000 repetitions (mean accuracy ≈ 91%). It then
//! reports that on a dual-core NPU the KNN-selected partitioning achieves
//! 21.5% improvement versus 22.4% for an oracle that always picks the best
//! scheme.
//!
//! [`label_layers`] simulates all three schemes per layer to produce the
//! ground truth; [`knn_partition_experiment`] reproduces the full protocol.

use crate::partition::PartitionScheme;
use crate::pipeline::{run_decided, LayerDecision};
use crate::schedule::BackwardOrder;
use crate::select::select_order;
use igo_knn::{repeated_accuracy, Classifier, Split};
use igo_npu_sim::NpuConfig;
use igo_tensor::GemmShape;
use igo_tensor::SplitMix64;

/// Feature vector for one layer: `log2` of the six tensor dimensions the
/// paper names — dX(M,K), dW(K,N), dY(M,N).
pub fn layer_features(gemm: GemmShape) -> Vec<f64> {
    let lg = |v: u64| (v as f64).log2();
    vec![
        lg(gemm.m()),
        lg(gemm.k()),
        lg(gemm.k()),
        lg(gemm.n()),
        lg(gemm.m()),
        lg(gemm.n()),
    ]
}

/// Ground truth for one layer: cycles under each scheme, and the best.
#[derive(Debug, Clone)]
pub struct LabeledLayer {
    /// The layer's forward GEMM.
    pub gemm: GemmShape,
    /// Cycles per scheme, indexed like [`PartitionScheme::ALL`].
    pub cycles: [u64; 3],
    /// The fastest scheme.
    pub label: PartitionScheme,
}

impl LabeledLayer {
    /// Cycles of the labelled (best) scheme.
    pub fn best_cycles(&self) -> u64 {
        *self.cycles.iter().min().expect("three schemes")
    }

    /// Cycles of an arbitrary scheme.
    pub fn cycles_of(&self, scheme: PartitionScheme) -> u64 {
        let idx = PartitionScheme::ALL
            .iter()
            .position(|&s| s == scheme)
            .expect("scheme in ALL");
        self.cycles[idx]
    }
}

/// Simulate the three partitioning schemes for one layer on `config` with
/// `parts` partitions (Algorithm-1 ordering per sub-GEMM) and label the
/// fastest. Each scheme is the pipeline's own DataPartitioning candidate,
/// replayed as its selection loop replays it.
pub fn label_layer(gemm: GemmShape, config: &NpuConfig, parts: u64) -> LabeledLayer {
    let cycles = PartitionScheme::ALL.map(|scheme| {
        let sub = gemm.split(scheme.split_dim(), parts)[0];
        let decision = LayerDecision {
            order: BackwardOrder::from(select_order(sub)),
            partition: Some((scheme, parts)),
        };
        run_decided(gemm, 1.0, config, decision, false).cycles
    });
    let best = (0..3).min_by_key(|&i| cycles[i]).expect("three schemes");
    LabeledLayer {
        gemm,
        cycles,
        label: PartitionScheme::ALL[best],
    }
}

/// Label a whole set of layers (deduplicated by shape).
pub fn label_layers(gemms: &[GemmShape], config: &NpuConfig, parts: u64) -> Vec<LabeledLayer> {
    let mut seen = std::collections::HashSet::new();
    gemms
        .iter()
        .filter(|g| seen.insert(**g))
        .map(|g| label_layer(*g, config, parts))
        .collect()
}

/// Outcome of the §5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnPartitionOutcome {
    /// Mean prediction accuracy over the repeated 80/20 splits.
    pub accuracy: f64,
    /// Test-set cycles when always using the oracle-best scheme.
    pub ideal_cycles: u64,
    /// Test-set cycles when using the KNN-predicted scheme.
    pub knn_cycles: u64,
    /// Test-set cycles of the *conventional* partitioning — batch
    /// (weight-sharing) data parallelism with the rearranged order — the
    /// §5 reference for "performance improvement achieved from data
    /// partitioning".
    pub reference_cycles: u64,
    /// Number of labelled layers.
    pub layers: usize,
}

impl KnnPartitionOutcome {
    /// Improvement of the oracle selection over the reference, as a
    /// fraction in `[0, 1)`.
    pub fn ideal_improvement(&self) -> f64 {
        1.0 - self.ideal_cycles as f64 / self.reference_cycles as f64
    }

    /// Improvement of the KNN selection over the reference.
    pub fn knn_improvement(&self) -> f64 {
        1.0 - self.knn_cycles as f64 / self.reference_cycles as f64
    }
}

/// Reproduce the paper's §5 protocol on `gemms`.
///
/// * label every distinct layer by simulating the three schemes at
///   `config.cores` partitions;
/// * measure mean KNN accuracy over `repeats` random 80/20 splits;
/// * on one final split, compare test-set cycles under oracle and KNN
///   selection against the conventional batch (weight-sharing)
///   partitioning.
///
/// # Panics
///
/// Panics if fewer than two distinct layers are supplied.
pub fn knn_partition_experiment(
    gemms: &[GemmShape],
    config: &NpuConfig,
    k: usize,
    repeats: usize,
    seed: u64,
) -> KnnPartitionOutcome {
    let labeled = label_layers(gemms, config, config.cores as u64);
    assert!(labeled.len() >= 2, "need at least two distinct layers");
    let features: Vec<Vec<f64>> = labeled.iter().map(|l| layer_features(l.gemm)).collect();
    let labels: Vec<PartitionScheme> = labeled.iter().map(|l| l.label).collect();

    let mut rng = SplitMix64::new(seed);
    let accuracy = repeated_accuracy(k, &features, &labels, 0.8, repeats, &mut rng)
        .expect("non-empty dataset");

    // One representative split for the cycle comparison.
    let split = Split::random(labeled.len(), 0.8, &mut rng);
    let train_x: Vec<Vec<f64>> = split.train.iter().map(|&i| features[i].clone()).collect();
    let train_y: Vec<PartitionScheme> = split.train.iter().map(|&i| labels[i]).collect();
    let knn = Classifier::fit(k, train_x, train_y).expect("non-empty training set");

    let mut ideal = 0u64;
    let mut predicted = 0u64;
    let mut reference = 0u64;
    for &i in &split.test {
        let layer = &labeled[i];
        ideal += layer.best_cycles();
        predicted += layer.cycles_of(*knn.predict(&features[i]));
        // Conventional NPUs partition on a batch basis (§5): the reference
        // is weight-sharing across the same cores.
        reference += layer.cycles_of(PartitionScheme::WeightSharing);
    }

    KnnPartitionOutcome {
        accuracy,
        ideal_cycles: ideal,
        knn_cycles: predicted,
        reference_cycles: reference,
        layers: labeled.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{SimContext, SimOptions};
    use crate::technique::Technique;

    fn sample_layers() -> Vec<GemmShape> {
        vec![
            GemmShape::new(4096, 1024, 4096),
            GemmShape::new(4096, 4096, 1024),
            GemmShape::new(16, 479, 1024),
            GemmShape::new(16, 1024, 1024),
            GemmShape::new(25088, 576, 64),
            GemmShape::new(6272, 1152, 128),
            GemmShape::new(1568, 2304, 256),
            GemmShape::new(16, 26, 512),
            GemmShape::new(392, 4608, 512),
            GemmShape::new(16, 2048, 1000),
        ]
    }

    #[test]
    fn features_are_log_dims() {
        let f = layer_features(GemmShape::new(8, 16, 32));
        assert_eq!(f, vec![3.0, 4.0, 4.0, 5.0, 3.0, 5.0]);
    }

    #[test]
    fn labeling_produces_the_minimum() {
        let config = NpuConfig::large_server(2);
        let l = label_layer(GemmShape::new(4096, 1024, 4096), &config, 2);
        assert_eq!(l.best_cycles(), *l.cycles.iter().min().unwrap());
        assert_eq!(l.cycles_of(l.label), l.best_cycles());
    }

    #[test]
    fn labels_agree_with_the_pipeline_selection() {
        // The pipeline's DataPartitioning candidates are the labelled
        // schemes plus each in the baseline order, so its selection can
        // only be faster, and is exactly the label's minimum whenever its
        // winner is one of the labelled candidates.
        let config = NpuConfig::large_server(2);
        let ctx = SimContext::new(SimOptions::default());
        let mut labelled_winners = 0;
        for gemm in sample_layers() {
            let (report, decision) =
                ctx.backward(gemm, 1.0, &config, Technique::DataPartitioning, false);
            let label = label_layer(gemm, &config, 2);
            assert!(report.cycles <= label.best_cycles(), "{gemm:?}");
            let (scheme, parts) = decision.partition.expect("multi-core partitions");
            let sub = gemm.split(scheme.split_dim(), parts)[0];
            if decision.order == BackwardOrder::from(select_order(sub)) {
                assert_eq!(report.cycles, label.best_cycles(), "{gemm:?}");
                labelled_winners += 1;
            }
        }
        assert!(labelled_winners > 0, "no winner was a labelled candidate");
    }

    #[test]
    fn dedup_removes_identical_shapes() {
        let config = NpuConfig::large_server(2);
        let g = GemmShape::new(256, 256, 256);
        let labeled = label_layers(&[g, g, g], &config, 2);
        assert_eq!(labeled.len(), 1);
    }

    #[test]
    fn knn_experiment_runs_and_orders_correctly() {
        let config = NpuConfig::large_server(2);
        let out = knn_partition_experiment(&sample_layers(), &config, 3, 10, 42);
        assert!(out.accuracy > 0.0 && out.accuracy <= 1.0);
        assert!(
            out.knn_cycles >= out.ideal_cycles,
            "prediction can never beat the oracle"
        );
        assert_eq!(out.layers, 10);
    }
}
