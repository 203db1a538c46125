//! Micro-batched inference: pack several graph samples into padded
//! block-diagonal chunks and run the GCN forward pass once per chunk.
//!
//! A [`GraphBatch`] concatenates the node-feature matrices of
//! consecutive graphs into one tall matrix per chunk and places their
//! adjacencies on the diagonal of one sparse operator (optionally
//! padded to a row stride). [`crate::RuntimePredictor::predict_log_batch`]
//! pushes each chunk through the GCN stack, pools each graph's row
//! segment separately and runs the dense layers once on a `B`-row
//! matrix, so layer dispatch and the 1-row dense products are paid per
//! chunk rather than per graph.
//!
//! One-at-a-time prediction is the same body: `predict_log` hands it
//! the sample's own adjacency and features, borrowed, as one chunk with
//! one segment. Because the blocks are disjoint, every per-row
//! accumulation of a packed chunk happens in exactly the order of that
//! one-sample chunk, so batched predictions are **bit-identical** to
//! one-at-a-time predictions — batching is a pure throughput
//! optimization, invisible to every downstream consumer (verified by
//! `batched_equals_sequential` below, and against an independent naive
//! forward pass by the crate's oracle).
//!
//! Chunks are cache-sized (block diagonality makes any row partition
//! along segment boundaries exact, not approximate): one giant
//! activation matrix would stream megabytes through every layer,
//! evicting itself between operations, and the chunk target bounds the
//! size of the thread's forward scratch.

use crate::{GraphSample, Matrix, SparseMatrix};
use eda_cloud_netlist::FEATURE_DIM;

/// Default target of padded node rows per internal chunk; a sample
/// larger than the target gets a chunk of its own. 192 was chosen on the
/// *fast* model by sweeping targets in the `inference_batching` bench
/// (192 × 32 f64 = 48 KiB at its widest layer). At paper dims a chunk's
/// widest activation is 192 × 256 f64 = 384 KiB — L2, not L1 — and the
/// target barely matters: `serve_miss` reads 153 / 155 / 150 requests/s
/// at 48 / 192 / 768 (`EXPERIMENTS.md` § Float GEMM), because the dense
/// kernels walk one activation row at a time against weights that stay
/// resident. What the chunking still buys is the bound on the scratch's
/// size.
pub const CHUNK_TARGET_ROWS: usize = 192;

/// One cache-sized slice of a batch: a block-diagonal adjacency over a
/// consecutive run of samples, their stacked features, and the row
/// segment each occupies within the chunk.
#[derive(Debug, Clone)]
pub(crate) struct BatchChunk {
    pub(crate) a_norm: SparseMatrix,
    pub(crate) features: Matrix,
    /// `(first_row, node_count)` per sample; padding rows (zero
    /// features, no adjacency) sit between segments when a stride is
    /// requested and are ignored by pooling.
    pub(crate) segments: Vec<(usize, usize)>,
}

/// A packed batch of graph samples, split into cache-sized
/// block-diagonal chunks in sample order.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    pub(crate) chunks: Vec<BatchChunk>,
    len: usize,
}

impl GraphBatch {
    /// Pack samples back to back (no padding).
    #[must_use]
    pub fn pack(samples: &[&GraphSample]) -> Self {
        Self::pack_padded(samples, 1)
    }

    /// Pack samples, padding every graph's row segment up to a multiple
    /// of `stride` with zero rows. Padding rows carry no adjacency and
    /// zero features, so they stay zero through every ReLU layer and
    /// never reach the pooled readout — predictions are independent of
    /// the stride (see `padding_does_not_change_predictions`).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn pack_padded(samples: &[&GraphSample], stride: usize) -> Self {
        Self::pack_chunked(samples, stride, CHUNK_TARGET_ROWS)
    }

    /// [`GraphBatch::pack_padded`] with an explicit chunk-row target
    /// instead of the built-in [`CHUNK_TARGET_ROWS`] default. Chunk
    /// size is a pure performance knob — predictions are bit-identical
    /// for every target (see
    /// `chunking_preserves_sample_order_and_results`) — exposed so
    /// benchmarks can measure the cache cliff that monolithic batches
    /// (`target_rows = usize::MAX`) fall off.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `target_rows` is zero.
    #[must_use]
    pub fn pack_chunked(samples: &[&GraphSample], stride: usize, target_rows: usize) -> Self {
        assert!(stride > 0, "pad stride must be positive");
        assert!(target_rows > 0, "chunk row target must be positive");
        let pad = |n: usize| n.div_ceil(stride) * stride;
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < samples.len() {
            // Greedy chunking: at least one sample, then extend while
            // the padded row budget holds.
            let mut end = start + 1;
            let mut rows = pad(samples[start].node_count());
            while end < samples.len() && rows + pad(samples[end].node_count()) <= target_rows {
                rows += pad(samples[end].node_count());
                end += 1;
            }
            chunks.push(Self::pack_chunk(&samples[start..end], &pad));
            start = end;
        }
        Self {
            chunks,
            len: samples.len(),
        }
    }

    /// Pack one consecutive run of samples into a chunk.
    fn pack_chunk(samples: &[&GraphSample], pad: &dyn Fn(usize) -> usize) -> BatchChunk {
        let total: usize = samples.iter().map(|s| pad(s.node_count())).sum();
        let mut segments = Vec::with_capacity(samples.len());
        let mut offsets = Vec::with_capacity(samples.len());
        let mut features = Matrix::zeros(total, FEATURE_DIM);
        let mut base = 0usize;
        for s in samples {
            let n = s.node_count();
            segments.push((base, n));
            offsets.push(base);
            let dst = &mut features.data_mut()[base * FEATURE_DIM..(base + n) * FEATURE_DIM];
            dst.copy_from_slice(s.features.data());
            base += pad(n);
        }
        let blocks: Vec<&SparseMatrix> = samples.iter().map(|s| &s.a_norm).collect();
        let a_norm = SparseMatrix::block_diagonal(&blocks, &offsets, total);
        BatchChunk {
            a_norm,
            features,
            segments,
        }
    }

    /// Number of samples in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total node rows, padding included.
    #[must_use]
    pub fn node_rows(&self) -> usize {
        self.chunks.iter().map(|c| c.features.rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, RuntimePredictor};
    use eda_cloud_netlist::{generators, DesignGraph};

    fn samples() -> Vec<GraphSample> {
        ["adder", "parity", "comparator", "max"]
            .iter()
            .enumerate()
            .map(|(i, family)| {
                let aig = generators::build_family(family, 4 + i as u32).expect("family");
                GraphSample::new(&DesignGraph::from_aig(&aig), [10.0, 7.0, 5.0, 4.0])
            })
            .collect()
    }

    #[test]
    fn batched_equals_sequential() {
        let samples = samples();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let model = RuntimePredictor::new(&ModelConfig::fast(), 11);
        let batch = GraphBatch::pack(&refs);
        let batched = model.predict_log_batch(&batch);
        assert_eq!(batched.len(), samples.len());
        for (s, got) in samples.iter().zip(&batched) {
            assert_eq!(*got, model.predict_log(s), "bitwise, not approximately");
        }
    }

    #[test]
    fn padding_does_not_change_predictions() {
        let samples = samples();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let model = RuntimePredictor::new(&ModelConfig::fast(), 3);
        let packed = model.predict_log_batch(&GraphBatch::pack(&refs));
        for stride in [4usize, 16, 64] {
            let padded_batch = GraphBatch::pack_padded(&refs, stride);
            assert!(padded_batch.node_rows() >= refs.iter().map(|s| s.node_count()).sum());
            assert_eq!(
                model.predict_log_batch(&padded_batch),
                packed,
                "stride {stride}"
            );
        }
    }

    #[test]
    fn chunking_preserves_sample_order_and_results() {
        // A batch wide enough to span several chunks.
        let base = samples();
        let many: Vec<&GraphSample> = (0..24).map(|i| &base[i % base.len()]).collect();
        let model = RuntimePredictor::new(&ModelConfig::fast(), 5);
        let batch = GraphBatch::pack_padded(&many, 8);
        assert!(batch.chunks.len() > 1, "expected multiple chunks");
        let batched = model.predict_log_batch(&batch);
        assert_eq!(batched.len(), many.len());
        for (s, got) in many.iter().zip(&batched) {
            assert_eq!(
                *got,
                model.predict_log(s),
                "bitwise across chunk boundaries"
            );
        }
        // The chunk-row target is a pure performance knob: one sample
        // per chunk and one monolithic chunk both reproduce the default
        // packing bit for bit.
        for target in [1usize, usize::MAX] {
            let repacked = GraphBatch::pack_chunked(&many, 8, target);
            assert_eq!(
                model.predict_log_batch(&repacked),
                batched,
                "target {target}"
            );
        }
    }

    #[test]
    fn empty_batch_predicts_nothing() {
        let model = RuntimePredictor::new(&ModelConfig::fast(), 1);
        let batch = GraphBatch::pack(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert!(batch.chunks.is_empty());
        assert!(model.predict_log_batch(&batch).is_empty());
        assert!(model.predict_secs_batch(&batch).is_empty());
    }

    #[test]
    fn secs_batch_applies_the_same_saturation() {
        let samples = samples();
        let refs: Vec<&GraphSample> = samples.iter().collect();
        let model = RuntimePredictor::new(&ModelConfig::fast(), 11);
        let batch = GraphBatch::pack(&refs);
        for (s, got) in samples.iter().zip(model.predict_secs_batch(&batch)) {
            assert_eq!(got, model.predict_secs(s));
        }
    }
}
