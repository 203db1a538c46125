//! Micro-batched inference: pack several graph samples into padded
//! block-diagonal chunks and run the GCN forward pass once per distinct
//! node state of each sample.
//!
//! Every sample is first folded into its **row-class quotient**
//! ([`RowQuotient`]): two node rows share a class when their feature bits
//! are equal and their `Ā` rows list the same `(weight bits, neighbour
//! class)` sequence in entry order, refined until no class splits
//! (stable ordered colour refinement: Weisfeiler–Lehman with edge order
//! and edge weights), so the classes hold at every GCN depth. A quotient
//! keeps one feature row per class, a class-level `Ā` whose row `c` is
//! the CSR row of class `c`'s first node with every column mapped to its
//! class, and the class of every node row. It is a function of the
//! sample alone, so a caller that forwards the same design many times
//! builds it once and keeps it (`eda_cloud_serve::ServeDesign` does;
//! `Trainer::try_fit` and `RuntimePredictor::fine_tune` build one per
//! training sample per call and step over it).
//!
//! A [`GraphBatch`] joins quotients into chunks ([`GraphBatch::join`]):
//! samples are cut into chunks greedily by padded node rows, each
//! sample's class ids and `Ā` columns are offset past the classes laid
//! down before it, and a chunk's padding rows are one zero-feature,
//! entry-free class. The join hashes nothing and merges no classes of
//! two samples — per-sample classes are 48.2 % of the node rows on the
//! 36-design `serve_miss` pool against 47.8 % when each whole chunk was
//! partitioned, 32.1 % against 31.8 % on the stock 18-design pool — and
//! a quotient joined twice is laid down twice.
//! [`GraphBatch::pack_padded`] is the same join over quotients built on
//! the spot, one per sample.
//! [`crate::RuntimePredictor::predict_log_batch`] pushes the class rows
//! through the GCN stack, pools each graph's node segment by reading
//! every node's class row in node order, and runs the dense layers once
//! on a `B`-row matrix, so layer dispatch and the 1-row dense products
//! are paid per chunk rather than per graph, and every repeated node
//! state is computed once.
//!
//! One-at-a-time prediction is the same body: `predict_log` hands it
//! the sample's own adjacency and features, borrowed, as one chunk with
//! one segment and no classes. Batched predictions are **bit-identical**
//! to it. The blocks are disjoint, so a node's row of a packed chunk
//! sees only its own graph; and every kernel of the stack is row-pure —
//! the CSR AXPY adds a row's terms in entry order, the dense kernels'
//! zero skip and fold grouping depend only on the row's own values, add
//! and ReLU are element-wise — so by induction over the layers every
//! member of a class has its representative's activations bit for bit,
//! and pooling adds them in node order exactly as the per-node pass
//! does. Batching is a pure throughput optimization, invisible to every
//! downstream consumer (verified by `batched_equals_sequential` and the
//! row-class differentials below, and against an independent naive
//! forward pass by the crate's oracle).
//!
//! The refinement re-keys a class whenever a class it reads splits, so
//! a split that travels one node per round (a shift register, a ring
//! counter) would cost quadratic time. It stops after
//! `KEYED_ROWS_PER_ITEM` keyed rows per row and stored entry of the
//! sample and leaves every row a class of its own: the per-node graph,
//! which is exact too, and on such graphs nearly the coarsest partition
//! anyway.
//!
//! Chunks are cache-sized (block diagonality makes any row partition
//! along segment boundaries exact, not approximate): one giant
//! activation matrix would stream megabytes through every layer,
//! evicting itself between operations, and the chunk target bounds the
//! size of the thread's forward scratch.

use crate::{GraphSample, Matrix, SparseMatrix};
use eda_cloud_netlist::FEATURE_DIM;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// Default target of padded node rows per internal chunk; a sample
/// larger than the target gets a chunk of its own. Chunks are cut by
/// node rows, while the forward runs over class rows, about half as
/// many on circuit graphs (per-design classes are 48.2 % of the node
/// rows on the 36-design `serve_miss` pool, 32.1 % on the stock
/// 18-design pool). 192 was chosen on the *fast* model by sweeping
/// targets in the `inference_batching` bench (192 × 32 f64 = 48 KiB at
/// its widest layer). At paper dims a chunk's widest
/// activation is at most 192 × 256 f64 = 384 KiB — L2, not L1 — and
/// the target barely matters: `serve_miss` read 153 / 155 / 150
/// requests/s at 48 / 192 / 768 (`EXPERIMENTS.md` § Float GEMM), because
/// the dense kernels walk one activation row at a time against weights
/// that stay resident. What the chunking still buys is the bound on the
/// scratch's size.
pub const CHUNK_TARGET_ROWS: usize = 192;

/// Rows the refinement of one sample may key, per row plus stored
/// entry of the sample, before it gives up and returns one class per
/// row. Circuit graphs settle far below it: no design of the serving
/// mixes keys more than 0.5 rows per row plus entry (`EXPERIMENTS.md`
/// § Row classes in bounded time), and a 32 000-stage ring counter
/// spends about 4.2–4.6 ms reaching it.
const KEYED_ROWS_PER_ITEM: usize = 2;

/// One cache-sized slice of a batch: a consecutive run of samples,
/// their row-class quotients joined.
#[derive(Debug, Clone)]
pub(crate) struct BatchChunk {
    /// Class-level `Ā`: row `c` is the block-diagonal row of class
    /// `c`'s first node, entries in their CSR order (not sorted,
    /// duplicates kept), each column the neighbour's class.
    pub(crate) a_norm: SparseMatrix,
    /// One feature row per class.
    pub(crate) features: Matrix,
    /// `(first_row, node_count)` per sample, in node rows; padding rows
    /// (zero features, no adjacency) sit between segments when a stride
    /// is requested and are ignored by pooling.
    pub(crate) segments: Vec<(usize, usize)>,
    /// The class of every node row, padding rows included.
    pub(crate) class_of: Vec<u32>,
}

/// A packed batch of graph samples, split into cache-sized
/// block-diagonal chunks in sample order.
#[derive(Debug, Clone)]
pub struct GraphBatch {
    pub(crate) chunks: Vec<BatchChunk>,
    len: usize,
}

impl GraphBatch {
    /// Pack samples, padding every graph's row segment up to a multiple
    /// of `stride` with zero rows. Padding rows carry no adjacency and
    /// zero features, so they stay zero through every ReLU layer and
    /// never reach the pooled readout — predictions are independent of
    /// the stride (see `padding_does_not_change_predictions`). A chunk's
    /// padding rows all fall into one row class, so the stride moves
    /// where chunks are cut but adds at most one class row per chunk to
    /// the forward.
    ///
    /// Each sample is quotiented here, then the quotients are joined as
    /// by [`GraphBatch::join`]; a caller that packs the same samples
    /// again should keep their [`RowQuotient`]s and join those.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero, or if a sample's adjacency is not
    /// square over its feature rows.
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
    /// Panics if `stride` or `target_rows` is zero, or if a sample's
    /// adjacency is not square over its feature rows.
    #[must_use]
    pub fn pack_chunked(samples: &[&GraphSample], stride: usize, target_rows: usize) -> Self {
        let quotients: Vec<RowQuotient> = samples.iter().map(|&s| RowQuotient::from(s)).collect();
        Self::join_chunked(&quotients.iter().collect::<Vec<_>>(), stride, target_rows)
    }

    /// Join row-class quotients into a batch, one sample each, padding
    /// every sample's node segment up to a multiple of `stride` — the
    /// batch [`GraphBatch::pack_padded`] makes of the samples they were
    /// built from, without re-partitioning any of them.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn join(quotients: &[&RowQuotient], stride: usize) -> Self {
        Self::join_chunked(quotients, stride, CHUNK_TARGET_ROWS)
    }

    /// [`GraphBatch::join`] with an explicit chunk-row target: cut
    /// greedily, at least one sample per chunk, then extend while the
    /// padded node rows stay within the target.
    fn join_chunked(quotients: &[&RowQuotient], stride: usize, target_rows: usize) -> Self {
        assert!(stride > 0, "pad stride must be positive");
        assert!(target_rows > 0, "chunk row target must be positive");
        let pad = |n: usize| n.div_ceil(stride) * stride;
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < quotients.len() {
            let mut end = start + 1;
            let mut rows = pad(quotients[start].node_count());
            while end < quotients.len() && rows + pad(quotients[end].node_count()) <= target_rows {
                rows += pad(quotients[end].node_count());
                end += 1;
            }
            chunks.push(Self::join_chunk(&quotients[start..end], &pad));
            start = end;
        }
        Self {
            chunks,
            len: quotients.len(),
        }
    }

    /// Lay one consecutive run of quotients down as a chunk. Classes are
    /// numbered by first appearance in node order: each quotient's
    /// classes follow the ones before it, and the padding class comes
    /// right after the first sample that is padded.
    fn join_chunk(quotients: &[&RowQuotient], pad: &dyn Fn(usize) -> usize) -> BatchChunk {
        let rows = quotients.iter().map(|q| pad(q.node_count())).sum();
        let mut class_of = Vec::with_capacity(rows);
        let mut segments = Vec::with_capacity(quotients.len());
        let (mut features, mut entries) = (Vec::new(), Vec::new());
        let mut padding = None;
        for &q in quotients {
            let base = (features.len() / FEATURE_DIM) as u32;
            features.extend_from_slice(&q.features);
            entries.extend(q.entries.iter().map(|&(r, c, w)| (base + r, base + c, w)));
            let n = q.node_count();
            segments.push((class_of.len(), n));
            class_of.extend(q.class_of.iter().map(|&c| base + c));
            if pad(n) > n {
                let class = *padding.get_or_insert_with(|| {
                    features.resize(features.len() + FEATURE_DIM, 0.0);
                    (features.len() / FEATURE_DIM - 1) as u32
                });
                class_of.resize(class_of.len() + pad(n) - n, class);
            }
        }
        let classes = features.len() / FEATURE_DIM;
        BatchChunk {
            a_norm: SparseMatrix::from_triplets(classes, classes, &entries),
            features: Matrix::from_vec(classes, FEATURE_DIM, features),
            segments,
            class_of,
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

    /// Total node rows, padding included (not class rows: this is how
    /// many rows the chunks were cut by).
    #[must_use]
    pub fn node_rows(&self) -> usize {
        self.chunks.iter().map(|c| c.class_of.len()).sum()
    }
}

/// The row-class quotient of one graph sample (see the module docs):
/// what [`GraphBatch::join`] lays down for it. Built once per sample by
/// `RowQuotient::from(&sample)`; it does not follow later edits of the
/// sample.
#[derive(Debug, Clone)]
pub struct RowQuotient {
    /// Class-level `Ā` as `(class, neighbour class, weight)`, by class,
    /// each class's entries in its first node's CSR order.
    entries: Vec<(u32, u32, f64)>,
    /// `FEATURE_DIM` values per class.
    features: Vec<f64>,
    /// The class of every node row.
    class_of: Vec<u32>,
}

impl RowQuotient {
    /// Partition `sample`'s node rows under `hashing`, keying at most
    /// `per_item` rows per row plus stored entry of the sample. The
    /// sample's CSR rows and feature rows are read in place.
    fn hashed(sample: &GraphSample, hashing: &impl BuildHasher, per_item: usize) -> Self {
        let n = sample.node_count();
        assert!(
            sample.a_norm.rows() == n && sample.a_norm.cols() == n,
            "a sample's adjacency must be square over its feature rows"
        );
        let budget = per_item * (n + sample.a_norm.nnz());
        let Classes { class_of, reps, keyed } = row_classes(sample, hashing, budget);
        debug_assert!(keyed <= budget, "the refinement keyed past its budget");
        let mut features = Vec::with_capacity(reps.len() * FEATURE_DIM);
        let mut entries = Vec::new();
        for (c, &rep) in reps.iter().enumerate() {
            features.extend_from_slice(sample.features.row(rep as usize));
            let row = row_entries(sample, rep as usize);
            entries.extend(row.map(|(col, w)| (c as u32, class_of[col as usize], w)));
        }
        Self { entries, features, class_of }
    }

    fn node_count(&self) -> usize {
        self.class_of.len()
    }
}

impl From<&GraphSample> for RowQuotient {
    /// Partition the sample's node rows into row classes.
    ///
    /// # Panics
    ///
    /// Panics if the sample's adjacency is not square over its feature
    /// rows.
    fn from(sample: &GraphSample) -> Self {
        Self::hashed(sample, &RowHashing::keyed(), KEYED_ROWS_PER_ITEM)
    }
}

/// Row `r`'s `Ā` entries as `(column, weight)` in CSR order, read in
/// place.
fn row_entries(
    sample: &GraphSample,
    r: usize,
) -> impl ExactSizeIterator<Item = (u32, f64)> + Clone + '_ {
    let a = &sample.a_norm;
    let span = a.offsets[r] as usize..a.offsets[r + 1] as usize;
    a.indices[span.clone()].iter().copied().zip(a.values[span].iter().copied())
}

/// A partition of a sample's node rows into row classes.
struct Classes {
    /// The class of every row, classes numbered by first appearance.
    class_of: Vec<u32>,
    /// The first row of every class.
    reps: Vec<u32>,
    /// Rows keyed by their entries on the way: every member of each
    /// class of two or more rows, each time the class was worked.
    keyed: usize,
}

/// Partition a sample's node rows into row classes, keying at most
/// `budget` rows by their entries; past it, every row is a class of its
/// own.
///
/// Rows start out grouped by their feature bits. Then a class is split
/// by its members' `(weight bits, neighbour class)` entry sequences in
/// CSR order, and every class with a member that reads a row the split
/// moved is queued to be split again, until the queue runs dry. The
/// partition left is stable — members of a class have equal features
/// and entry-for-entry equal rows over classes, which is what makes
/// their activations equal at every depth — and it is the coarsest
/// stable one under the feature grouping, since a split never parts two
/// rows whose keys agree: the same partition, whatever order the queue
/// is worked in. Classes are numbered by first appearance in node order
/// at the end, and a hash match is only a candidate whose key is
/// compared exactly, so the result is a pure function of the sample and
/// the budget, whatever the hash. A class of one row cannot split and
/// is not keyed. The identity partition returned past the budget is
/// stable too (any partition into single rows is), so it is exact.
fn row_classes(sample: &GraphSample, hashing: &impl BuildHasher, budget: usize) -> Classes {
    let rows = sample.node_count();
    let mut table = GroupTable::new(rows);
    let mut classes = 0u32;
    let mut class = Vec::with_capacity(rows);
    for r in 0..rows {
        let key = sample.features.row(r);
        let mut h = hashing.build_hasher();
        key.iter().for_each(|v| h.write_u64(v.to_bits()));
        let same = |q: usize| {
            sample.features.row(q).iter().zip(key).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        class.push(table.group(h.finish(), r, same, || {
            classes += 1;
            classes - 1
        }));
    }
    let mut keyed = 0;
    // Each class is the run `members[span.0..span.1]`.
    let (mut members, mut spans) = runs(&class, classes as usize);
    let (reader_at, readers) = readers(sample);
    let mut queued = vec![true; classes as usize];
    let mut queue: Vec<u32> = (0..classes).rev().collect();
    let (mut labels, mut tagged) = (Vec::new(), Vec::new());
    while let Some(c) = queue.pop() {
        queued[c as usize] = false;
        let (start, end) = spans[c as usize];
        if end - start < 2 {
            continue;
        }
        if keyed + (end - start) > budget {
            let singletons: Vec<u32> = (0..rows as u32).collect();
            return Classes { class_of: singletons.clone(), reps: singletons, keyed };
        }
        keyed += end - start;
        let run = &members[start..end];
        let groups = entry_groups(sample, &class, run, &mut table, hashing, &mut labels);
        if groups < 2 {
            continue;
        }
        // Group 0 keeps the class; group `g` becomes class
        // `classes + g - 1`, its members moved to a run of their own.
        tagged.clear();
        tagged.extend(labels.iter().copied().zip(members[start..end].iter().copied()));
        tagged.sort_by_key(|&(g, _)| g);
        let mut at = start;
        for (g, run) in tagged.chunk_by(|a, b| a.0 == b.0).enumerate() {
            let span = (at, at + run.len());
            members[span.0..span.1].iter_mut().zip(run).for_each(|(m, &(_, r))| *m = r);
            if g == 0 {
                spans[c as usize] = span;
            } else {
                spans.push(span);
            }
            at = span.1;
        }
        let moved = &tagged[spans[c as usize].1 - start..];
        for &(g, m) in moved {
            class[m as usize] = classes + g - 1;
        }
        classes = spans.len() as u32;
        queued.resize(spans.len(), false);
        for &(_, m) in moved {
            let m = m as usize;
            for &q in &readers[reader_at[m] as usize..reader_at[m + 1] as usize] {
                let d = class[q as usize] as usize;
                if !std::mem::replace(&mut queued[d], true) {
                    queue.push(d as u32);
                }
            }
        }
    }
    // Number the classes by first appearance in node order.
    let mut number = vec![u32::MAX; classes as usize];
    let mut reps = Vec::new();
    for (r, c) in class.iter_mut().enumerate() {
        let n = &mut number[*c as usize];
        if *n == u32::MAX {
            *n = reps.len() as u32;
            reps.push(r as u32);
        }
        *c = *n;
    }
    Classes { class_of: class, reps, keyed }
}

/// Group the rows of one class by their `(weight bits, neighbour
/// class)` entry sequences: `labels[i]` receives the group of
/// `members[i]`, groups numbered by first appearance. Returns how many
/// groups there are.
fn entry_groups(
    sample: &GraphSample,
    class: &[u32],
    members: &[u32],
    table: &mut GroupTable,
    hashing: &impl BuildHasher,
    labels: &mut Vec<u32>,
) -> u32 {
    table.next_generation();
    labels.clear();
    let mut groups = 0u32;
    for &r in members {
        let key = row_entries(sample, r as usize);
        let mut h = hashing.build_hasher();
        for (col, w) in key.clone() {
            h.write_u64(w.to_bits());
            h.write_u32(class[col as usize]);
        }
        let same = |q: usize| {
            let row = row_entries(sample, q);
            row.len() == key.len()
                && row.zip(key.clone()).all(|((qc, qw), (rc, rw))| {
                    qw.to_bits() == rw.to_bits() && class[qc as usize] == class[rc as usize]
                })
        };
        labels.push(table.group(h.finish(), r as usize, same, || {
            groups += 1;
            groups - 1
        }));
    }
    groups
}

/// Rows sorted by class, in node order within a class, and each class's
/// `(start, end)` in that order.
fn runs(class: &[u32], classes: usize) -> (Vec<u32>, Vec<(usize, usize)>) {
    let mut spans = vec![(0, 0); classes];
    for &c in class {
        spans[c as usize].1 += 1;
    }
    let mut at = 0;
    for span in &mut spans {
        *span = (at, at + span.1);
        at = span.1;
    }
    let mut members = vec![0; class.len()];
    let mut fill: Vec<usize> = spans.iter().map(|s| s.0).collect();
    for (r, &c) in class.iter().enumerate() {
        members[fill[c as usize]] = r as u32;
        fill[c as usize] += 1;
    }
    (members, spans)
}

/// The transpose of a sample's adjacency pattern: `readers[at[col]..at[col
/// + 1]]` are the rows with an entry in column `col`.
fn readers(sample: &GraphSample) -> (Vec<u32>, Vec<u32>) {
    let rows = sample.node_count();
    let mut at = vec![0u32; rows + 1];
    for r in 0..rows {
        for (col, _) in row_entries(sample, r) {
            at[col as usize + 1] += 1;
        }
    }
    for i in 0..rows {
        at[i + 1] += at[i];
    }
    let mut readers = vec![0; at[rows] as usize];
    let mut fill = at.clone();
    for r in 0..rows {
        for (col, _) in row_entries(sample, r) {
            readers[fill[col as usize] as usize] = r as u32;
            fill[col as usize] += 1;
        }
    }
    (at, readers)
}

/// Open-addressed table from a row key's hash to the group of rows with
/// that key, at most half full, linear probing. Slots of an earlier
/// generation count as empty, so starting a new grouping costs nothing.
struct GroupTable {
    /// `(hash, first row, group, generation)`.
    slots: Vec<(u32, u32, u32, u32)>,
    generation: u32,
}

impl GroupTable {
    fn new(rows: usize) -> Self {
        Self {
            slots: vec![(0, 0, 0, 0); (2 * rows).next_power_of_two()],
            generation: 1,
        }
    }

    fn next_generation(&mut self) {
        self.generation += 1;
    }

    /// The group of `row`, whose key hashes to `hash`: the group of the
    /// first earlier row of this generation that `same` accepts among
    /// those with this hash, or a `fresh` one that `row` opens.
    fn group(
        &mut self,
        hash: u64,
        row: usize,
        same: impl Fn(usize) -> bool,
        fresh: impl FnOnce() -> u32,
    ) -> u32 {
        let mask = self.slots.len() - 1;
        let hash = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let (h, first, group, generation) = self.slots[i];
            if generation != self.generation {
                let group = fresh();
                self.slots[i] = (hash, row as u32, group, self.generation);
                return group;
            }
            if h == hash && same(first as usize) {
                return group;
            }
            i = (i + 1) & mask;
        }
    }
}

/// The row-key hash: every word is folded into the state by a
/// 64 × 64 → 128-bit multiply with a secret whose two halves are XORed
/// (the folded multiply of aHash's and foldhash's portable paths). The
/// seed and the secret are drawn once per process from [`RandomState`],
/// so no upload can aim its rows at one probe chain. Packing never
/// depends on the hash (see [`row_classes`]).
#[derive(Clone, Copy)]
struct RowHashing {
    seed: u64,
    secret: u64,
}

impl RowHashing {
    fn keyed() -> Self {
        static KEYS: OnceLock<RowHashing> = OnceLock::new();
        *KEYS.get_or_init(|| {
            let state = RandomState::new();
            Self {
                seed: state.hash_one(0u64),
                secret: state.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for RowHashing {
    type Hasher = RowHasher;

    fn build_hasher(&self) -> RowHasher {
        RowHasher {
            state: self.seed,
            secret: self.secret,
        }
    }
}

struct RowHasher {
    state: u64,
    secret: u64,
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.secret);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ModelConfig, QuantizedPredictor, RuntimePredictor};
    use eda_cloud_netlist::{generators, DesignGraph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::hash::BuildHasherDefault;

    /// Samples stacked at node level: every sample's `Ā` rows in CSR
    /// form with columns shifted to its segment, and the stacked
    /// features. Padding rows have no entries and zero features. The
    /// per-node reference chunks are built from it.
    struct NodeRows {
        /// `offsets[r]..offsets[r + 1]` are row `r`'s entries.
        offsets: Vec<u32>,
        /// `(column, weight)` per stored entry, in each sample's CSR order.
        entries: Vec<(u32, f64)>,
        /// `FEATURE_DIM` values per node row.
        features: Vec<f64>,
    }

    impl NodeRows {
        /// Stack `samples`, each padded to `pad(n)` rows.
        fn stack(samples: &[&GraphSample], pad: &dyn Fn(usize) -> usize) -> Self {
            let total: usize = samples.iter().map(|s| pad(s.node_count())).sum();
            let mut nodes = Self {
                offsets: Vec::with_capacity(total + 1),
                entries: Vec::with_capacity(samples.iter().map(|s| s.a_norm.nnz()).sum()),
                features: vec![0.0; total * FEATURE_DIM],
            };
            let mut base = 0usize;
            for s in samples {
                let n = s.node_count();
                let dst = &mut nodes.features[base * FEATURE_DIM..(base + n) * FEATURE_DIM];
                dst.copy_from_slice(s.features.data());
                for (r, c, w) in s.a_norm.entries() {
                    nodes.open_rows_through(base + r as usize);
                    nodes.entries.push((base as u32 + c, w));
                }
                base += pad(n);
                nodes.open_rows_through(base);
            }
            nodes
        }

        /// Record the start of every row up to `row` not yet started:
        /// rows skipped over are empty, and `row` starts at the next entry.
        fn open_rows_through(&mut self, row: usize) {
            while self.offsets.len() <= row {
                self.offsets.push(self.entries.len() as u32);
            }
        }

        fn rows(&self) -> usize {
            self.offsets.len() - 1
        }

        fn row(&self, r: usize) -> &[(u32, f64)] {
            &self.entries[self.offsets[r] as usize..self.offsets[r + 1] as usize]
        }
    }

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
        let batch = GraphBatch::pack_padded(&refs, 1);
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
        let packed = model.predict_log_batch(&GraphBatch::pack_padded(&refs, 1));
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
        let batch = GraphBatch::pack_padded(&[], 1);
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
        let batch = GraphBatch::pack_padded(&refs, 1);
        for (s, got) in samples.iter().zip(model.predict_secs_batch(&batch)) {
            assert_eq!(got, model.predict_secs(s));
        }
    }

    /// Every stock serving-pool design (the six `serve` families at
    /// sizes 4, 6 and 8, the 18 designs `serve_plan` draws) packs into
    /// at most 35 % of its node rows as row classes: circuit graphs are
    /// regular, and a packing that silently stopped folding them would
    /// still predict right but lose the saving.
    #[test]
    fn stock_pool_packs_to_about_a_third_of_its_rows() {
        let mut pool = Vec::new();
        for family in ["adder", "parity", "comparator", "max", "gray2bin", "hamming"] {
            for size in [4u32, 6, 8] {
                let aig = generators::build_family(family, size).expect("family");
                pool.push(GraphSample::new(&DesignGraph::from_aig(&aig), [1.0; 4]));
            }
        }
        let refs: Vec<&GraphSample> = pool.iter().collect();
        for stride in [1usize, 8] {
            for target in [1usize, CHUNK_TARGET_ROWS] {
                let batch = GraphBatch::pack_chunked(&refs, stride, target);
                let classes: usize = batch.chunks.iter().map(|c| c.features.rows()).sum();
                let rows = batch.node_rows();
                assert!(
                    classes * 100 <= rows * 35,
                    "stride {stride} target {target}: {classes} class rows of {rows} node rows"
                );
            }
        }
    }

    /// A chunk's padding rows carry no adjacency and zero features, so
    /// they are one class shared by every padded sample, each copy of a
    /// sample gets classes of its own, and a class of real nodes keeps
    /// its representative's entries in CSR order, duplicates included.
    #[test]
    fn padding_is_one_class_and_class_rows_keep_entry_order() {
        // Node 2 reads node 1, node 0 and node 1 again, in that order;
        // nodes 0 and 1 are fanin-free with equal features.
        let a_norm = SparseMatrix::from_triplets(3, 3, &[(2, 1, 0.5), (2, 0, 0.25), (2, 1, 0.25)]);
        let mut features = Matrix::zeros(3, FEATURE_DIM);
        features.data_mut()[2 * FEATURE_DIM] = 1.0;
        features.data_mut()[..FEATURE_DIM].fill(2.0);
        features.data_mut()[FEATURE_DIM..2 * FEATURE_DIM].fill(2.0);
        let sample = sample_from(a_norm, features);
        let batch = GraphBatch::pack_padded(&[&sample, &sample], 8);
        let chunk = &batch.chunks[0];
        assert_eq!(batch.node_rows(), 16);
        // Classes by first appearance: {0, 1}, {2}, padding, {8, 9}, {10}.
        let want = [0u32, 0, 1, 2, 2, 2, 2, 2, 3, 3, 4, 2, 2, 2, 2, 2];
        assert_eq!(chunk.class_of, want);
        let entries: Vec<(u32, u32, f64)> = chunk.a_norm.entries().collect();
        let copy = [(1, 0, 0.5), (1, 0, 0.25), (1, 0, 0.25)];
        let second = copy.map(|(r, c, w)| (r + 3, c + 3, w));
        assert_eq!(entries, [copy, second].concat());
        assert_eq!(chunk.segments, [(0, 3), (8, 3)]);
    }

    fn sample_from(a_norm: SparseMatrix, features: Matrix) -> GraphSample {
        GraphSample {
            name: "planted".to_owned(),
            a_norm,
            features,
            log_targets: [0.0; 4],
            targets_secs: [1.0; 4],
        }
    }

    /// Feature and weight values with equal-looking but distinct bit
    /// patterns (`±0.0`) and a `NaN`, so classes must be keyed by bits.
    const PALETTE: [f64; 7] = [0.0, -0.0, 1.0, 0.5, -2.0, 3.25, f64::NAN];

    /// A random graph with planted symmetry: `copies` copies of one
    /// random subgraph (self-loops, repeated and out-of-order fanins,
    /// weights `1/deg` or from [`PALETTE`]), then join nodes that read
    /// the same node of two copies (two fanins from one class), then
    /// fanin-free nodes, then in four graphs of five a long run of
    /// identical nodes along which a split travels one node per round:
    /// a chain (each reads the one before), a ring closed through a
    /// two-entry "inverter", a comb (spine nodes read the next one and a
    /// fanin-free tooth; the last reads only its tooth), or a pure ring,
    /// which is one class. Feature rows come from a few prototypes drawn
    /// from [`PALETTE`]; `NaN` is planted in about one graph in four.
    pub(crate) fn planted(rng: &mut ChaCha8Rng) -> GraphSample {
        let nan = rng.gen_range(0..4) == 0;
        let values = PALETTE.len() - usize::from(!nan);
        let value = |rng: &mut ChaCha8Rng| PALETTE[rng.gen_range(0..values)];
        let protos: Vec<[f64; FEATURE_DIM]> = (0..rng.gen_range(1..4))
            .map(|_| std::array::from_fn(|_| value(&mut *rng)))
            .collect();
        let k = rng.gen_range(1..7usize);
        let copies = rng.gen_range(1..4usize);
        let joins = rng.gen_range(0..4usize);
        let sources = rng.gen_range(0..4usize);
        let (shape, run) = (rng.gen_range(0..5usize), rng.gen_range(2..40usize));
        let shaped = [0, run, run + 1, 2 * run, run][shape];
        let n = k * copies + joins + sources + shaped;
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut feats: Vec<usize> = vec![0; n];
        for v in 0..k {
            let degree = rng.gen_range(0..5);
            let fanins: Vec<usize> = (0..degree).map(|_| rng.gen_range(0..k)).collect();
            let palette_weights = rng.gen_range(0..3) == 0;
            let proto = rng.gen_range(0..protos.len());
            for c in 0..copies {
                feats[c * k + v] = proto;
            }
            for &u in &fanins {
                let w = if palette_weights { value(&mut *rng) } else { 1.0 / fanins.len() as f64 };
                for c in 0..copies {
                    rows[c * k + v].push(((c * k + u) as u32, w));
                }
            }
        }
        for j in 0..joins {
            let v = k * copies + j;
            let u = rng.gen_range(0..k);
            let (a, b) = (rng.gen_range(0..copies), rng.gen_range(0..copies));
            let extra = rng.gen_range(0..n) as u32;
            rows[v] = vec![((a * k + u) as u32, 0.5), ((b * k + u) as u32, 0.25), (extra, 0.25)];
            feats[v] = rng.gen_range(0..protos.len());
        }
        for s in 0..sources {
            feats[k * copies + joins + s] = rng.gen_range(0..protos.len());
        }
        let at = k * copies + joins + sources;
        let node = |i: usize| (at + i) as u32;
        for i in 0..run.min(shaped) {
            rows[at + i] = match shape {
                1 if i > 0 => vec![(node(i - 1), 1.0)],
                2 => vec![(node(if i == 0 { run } else { i - 1 }), 1.0)],
                3 if i + 1 < run => vec![(node(i + 1), 0.5), (node(run + i), 0.5)],
                3 => vec![(node(run + i), 1.0)],
                4 => vec![(node((i + run - 1) % run), 1.0)],
                _ => Vec::new(),
            };
        }
        if shape == 2 {
            rows[at + run] = vec![(node(run - 1), 0.5), (node(run - 1), 0.5)];
        }
        feats[at..].fill(rng.gen_range(0..protos.len()));
        let triplets: Vec<(u32, u32, f64)> = rows
            .iter()
            .enumerate()
            .flat_map(|(v, row)| row.iter().map(move |&(u, w)| (v as u32, u, w)))
            .collect();
        let data = feats.iter().flat_map(|&p| protos[p]).collect();
        let a_norm = SparseMatrix::from_triplets(n, n, &triplets);
        sample_from(a_norm, Matrix::from_vec(n, FEATURE_DIM, data))
    }

    /// A hasher under which every key collides: packing must still
    /// tell keys apart by comparing them.
    #[derive(Default)]
    struct Colliding;

    impl Hasher for Colliding {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            7
        }
    }

    /// The batch `pack_chunked` cuts, with every chunk left at node
    /// level: one class per node row. The reference the int8 path is
    /// held to, whose activation scale is a max over a whole chunk.
    fn per_node(samples: &[&GraphSample], stride: usize, target: usize) -> GraphBatch {
        let mut batch = GraphBatch::pack_chunked(samples, stride, target);
        let pad = |n: usize| n.div_ceil(stride) * stride;
        let mut start = 0;
        for chunk in &mut batch.chunks {
            let end = start + chunk.segments.len();
            let nodes = NodeRows::stack(&samples[start..end], &pad);
            let rows = nodes.rows();
            let triplets: Vec<(u32, u32, f64)> = (0..rows)
                .flat_map(|r| nodes.row(r).iter().map(move |&(c, w)| (r as u32, c, w)))
                .collect();
            chunk.a_norm = SparseMatrix::from_triplets(rows, rows, &triplets);
            chunk.features = Matrix::from_vec(rows, FEATURE_DIM, nodes.features.clone());
            chunk.class_of = (0..rows as u32).collect();
            start = end;
        }
        batch
    }

    /// A chunk's classes, class adjacency and class features, as bits.
    type ChunkBits = (Vec<u32>, Vec<(u32, u32, u64)>, Vec<u64>);

    fn chunk_bits(chunk: &BatchChunk) -> ChunkBits {
        let entries = chunk.a_norm.entries().map(|(r, c, w)| (r, c, w.to_bits())).collect();
        let features = chunk.features.data().iter().map(|v| v.to_bits()).collect();
        (chunk.class_of.clone(), entries, features)
    }

    fn bits(rows: &[[f64; 4]]) -> Vec<[u64; 4]> {
        rows.iter().map(|r| r.map(f64::to_bits)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Forwarding row classes predicts what forwarding every node
        /// row predicts, bit for bit: float against per-sample
        /// `predict_log`; int8, whose activation scales are per chunk
        /// and per batch, against per-sample `predict_log` for a batch
        /// of one and against the per-node packing at every target.
        /// Graphs carry planted symmetry, and one of them is packed
        /// twice. Quotients built under a hash where every key collides
        /// join into the very same chunks.
        #[test]
        fn row_classes_predict_what_node_rows_predict(seed in 0u64..u64::MAX, deep in 0usize..2) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let count = rng.gen_range(1..5);
            let samples: Vec<GraphSample> = (0..count).map(|_| planted(&mut rng)).collect();
            let mut refs: Vec<&GraphSample> = samples.iter().collect();
            refs.insert(rng.gen_range(0..=refs.len()), &samples[rng.gen_range(0..samples.len())]);
            let config = if deep == 1 {
                ModelConfig { gcn_dims: vec![12, 7, 5], fc_dim: 6 }
            } else {
                ModelConfig::fast()
            };
            let model = RuntimePredictor::new(&config, seed % 1_000);
            let quantized = QuantizedPredictor::quantize(&model);
            let float: Vec<[f64; 4]> = refs.iter().map(|s| model.predict_log(s)).collect();
            let colliding = BuildHasherDefault::<Colliding>::default();
            let collided: Vec<RowQuotient> = refs
                .iter()
                .map(|s| RowQuotient::hashed(s, &colliding, KEYED_ROWS_PER_ITEM))
                .collect();
            let collided: Vec<&RowQuotient> = collided.iter().collect();
            for stride in [1usize, 8] {
                for s in &refs {
                    let alone = GraphBatch::pack_padded(&[s], stride);
                    let want = bits(&[quantized.predict_log(s)]);
                    prop_assert_eq!(bits(&quantized.predict_log_batch(&alone)), want);
                }
                for target in [1usize, CHUNK_TARGET_ROWS, usize::MAX] {
                    let batch = GraphBatch::pack_chunked(&refs, stride, target);
                    prop_assert_eq!(bits(&model.predict_log_batch(&batch)), bits(&float));
                    let got = bits(&quantized.predict_log_batch(&batch));
                    let unfolded = per_node(&refs, stride, target);
                    prop_assert_eq!(&got, &bits(&quantized.predict_log_batch(&unfolded)));
                    let collided = GraphBatch::join_chunked(&collided, stride, target);
                    let chunks = |b: &GraphBatch| -> Vec<ChunkBits> {
                        b.chunks.iter().map(chunk_bits).collect()
                    };
                    prop_assert_eq!(chunks(&collided), chunks(&batch));
                }
            }
        }
    }

    /// A `stages`-long shift register as the front door featurizes one:
    /// a data input, one clock per 1 000 stages, and identical
    /// flip-flops each reading the stage before and its clock. With
    /// `ring`, the first stage reads an inverter of the last one (a
    /// Johnson counter) instead of the input.
    fn shift_register(stages: usize, ring: bool) -> GraphSample {
        let clocks = stages.div_ceil(1_000);
        let (input, first) = (clocks, clocks + 1);
        let n = first + stages + usize::from(ring);
        let inverter = first + stages;
        let mut triplets = Vec::new();
        for i in 0..stages {
            let before = match (i, ring) {
                (0, true) => inverter,
                (0, false) => input,
                _ => first + i - 1,
            };
            triplets.push(((first + i) as u32, before as u32, 0.5));
            triplets.push(((first + i) as u32, (i / 1_000) as u32, 0.5));
        }
        if ring {
            triplets.push((inverter as u32, (first + stages - 1) as u32, 1.0));
        }
        let kind = |v: usize| match v {
            _ if v < clocks => 0,
            _ if v == input => 1,
            _ if v == inverter => 2,
            _ => 3,
        };
        let data = (0..n).flat_map(|v| (0..FEATURE_DIM).map(move |f| f64::from(f == kind(v))));
        let features = Matrix::from_vec(n, FEATURE_DIM, data.collect());
        sample_from(SparseMatrix::from_triplets(n, n, &triplets), features)
    }

    /// The refinement's work is bounded by a count, not by the clock: on
    /// 16 000-stage shift registers and ring counters, where a split
    /// travels one stage per round and an unbounded refinement keys a
    /// quadratic number of rows, it keys at most `KEYED_ROWS_PER_ITEM`
    /// rows per row plus entry and then hands back one class per row —
    /// exact, and what the coarsest partition nearly is on such a graph.
    /// A pure ring of identical stages still folds to one class.
    #[test]
    fn refinement_work_is_bounded_on_shift_registers_and_rings() {
        let hashing = RowHashing::keyed();
        for ring in [false, true] {
            let sample = shift_register(16_000, ring);
            let rows = sample.node_count();
            let items = rows + sample.a_norm.nnz();
            let classes = row_classes(&sample, &hashing, KEYED_ROWS_PER_ITEM * items);
            assert!(classes.keyed <= KEYED_ROWS_PER_ITEM * items, "ring {ring}: {}", classes.keyed);
            assert_eq!(classes.reps.len(), rows, "ring {ring}: one class per row");
            let batch = GraphBatch::pack_padded(&[&sample], 1);
            assert_eq!(batch.chunks[0].features.rows(), rows);
        }
        // Unbounded, a 2 000-stage register keys a quadratic count.
        let sample = shift_register(2_000, false);
        let unbounded = row_classes(&sample, &hashing, usize::MAX);
        assert!(unbounded.keyed > 2_000 * 2_000 / 4, "{} keyed rows", unbounded.keyed);
        // Every stage has its own depth; the two clocks are one class.
        assert_eq!(unbounded.reps.len(), sample.node_count() - 1);
        // A ring of identical stages is one class, found cheaply.
        let n = 16_000;
        let cycle: Vec<(u32, u32, f64)> =
            (0..n).map(|i| (i as u32, ((i + n - 1) % n) as u32, 1.0)).collect();
        let pure = sample_from(
            SparseMatrix::from_triplets(n, n, &cycle),
            Matrix::from_vec(n, FEATURE_DIM, vec![1.0; n * FEATURE_DIM]),
        );
        let classes = row_classes(&pure, &hashing, KEYED_ROWS_PER_ITEM * 2 * n);
        assert_eq!((classes.reps.len(), classes.keyed), (1, n));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Joining kept per-sample quotients predicts what per-node
        /// packing predicts, bit for bit, at strides 1 and 8 and chunk
        /// targets 1, 192 and unbounded: float against per-sample
        /// `predict_log`, int8 against a per-node packing of the same
        /// cut. Quotients built once serve two batches, a sample repeats
        /// within one, and the chunks equal `pack_chunked`'s. Quotients
        /// refined under a zero budget (one class per row) predict the
        /// same bits.
        #[test]
        fn joined_quotients_predict_what_node_rows_predict(seed in 0u64..u64::MAX) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let count = rng.gen_range(1..5);
            let samples: Vec<GraphSample> = (0..count).map(|_| planted(&mut rng)).collect();
            let mut picks: Vec<usize> = (0..count).collect();
            picks.insert(rng.gen_range(0..=count), rng.gen_range(0..count));
            let refs: Vec<&GraphSample> = picks.iter().map(|&i| &samples[i]).collect();
            let model = RuntimePredictor::new(&ModelConfig::fast(), seed % 1_000);
            let quantized = QuantizedPredictor::quantize(&model);
            let float: Vec<[f64; 4]> = refs.iter().map(|s| model.predict_log(s)).collect();
            let hashing = RowHashing::keyed();
            for per_item in [KEYED_ROWS_PER_ITEM, 0] {
                let kept: Vec<RowQuotient> =
                    samples.iter().map(|s| RowQuotient::hashed(s, &hashing, per_item)).collect();
                let joined: Vec<&RowQuotient> = picks.iter().map(|&i| &kept[i]).collect();
                for stride in [1usize, 8] {
                    for target in [1usize, CHUNK_TARGET_ROWS, usize::MAX] {
                        let batch = GraphBatch::join_chunked(&joined, stride, target);
                        prop_assert_eq!(bits(&model.predict_log_batch(&batch)), bits(&float));
                        let unfolded = per_node(&refs, stride, target);
                        prop_assert_eq!(
                            bits(&quantized.predict_log_batch(&batch)),
                            bits(&quantized.predict_log_batch(&unfolded))
                        );
                        if per_item == KEYED_ROWS_PER_ITEM {
                            let packed = GraphBatch::pack_chunked(&refs, stride, target);
                            let chunks = |b: &GraphBatch| -> Vec<ChunkBits> {
                                b.chunks.iter().map(chunk_bits).collect()
                            };
                            prop_assert_eq!(chunks(&batch), chunks(&packed));
                        }
                    }
                }
            }
        }
    }
}
