//! Sources as keys: a spec's matrices as per-matrix [`SourceKey`]s, built
//! only when a job needs the matrix itself.
//!
//! The model is a function of the sparsity pattern alone, and the
//! [`ProfileCache`] already memoizes each profile under the pattern's
//! fingerprint. What a job needs *before* its cache lookup — the
//! decorated name, the reorder-tagged fingerprint and the shape — is kept
//! in a bounded memo inside that cache, keyed by the source key. A warm
//! job therefore builds nothing: the matrix is generated inside the
//! profile computation (only a miss pays for it), or for an `ecm on`
//! estimate, which reads the workload.
//!
//! Each matrix of a run lives in a [`MatrixSlot`]: built by the first job
//! that needs it, on whichever thread runs that job, and released when
//! the slot's job countdown reaches zero. `mtx` sources (and
//! [`run_on`](crate::run_on)'s caller-built workloads) enter pre-filled
//! slots: files are read eagerly, so their errors precede every report,
//! and they are never memoized, so a rewritten file is always re-read.

use crate::cache::LiveSource;
use crate::{EngineError, MatrixSource, ProfileCache};
use locality_core::{FormatSpec, ReorderSpec, RhsLayout, ScenarioSpec, SpmvWorkload, Workload};
use sparsemat::CsrMatrix;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One generated matrix of a spec, exactly as the engine would build it:
/// its generator source (a `corpus` or `table1` line — never an `mtx`
/// file), its index within that source, and the storage format, row order
/// and kernel scenario the spec applies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SourceKey {
    source: MatrixSource,
    index: usize,
    format: FormatSpec,
    reorder: ReorderSpec,
    scenario: ScenarioSpec,
}

impl SourceKey {
    /// Generates the matrix and builds its workload.
    pub(crate) fn build(&self) -> Result<(String, Workload), EngineError> {
        let member = match self.source {
            MatrixSource::Corpus { count, scale, seed } => {
                corpus::corpus_member(count, scale, seed, self.index)
            }
            MatrixSource::Table1 { scale } => corpus::table1_member(scale, self.index),
            MatrixSource::MtxFile(_) => unreachable!("mtx sources are read, not keyed"),
        };
        make_workload(
            member.name,
            member.matrix,
            self.format,
            self.reorder,
            self.scenario,
        )
    }
}

/// What a job needs to know about a matrix without building it.
#[derive(Debug)]
pub(crate) struct SourceMeta {
    /// Report name, with the format/reorder/scenario suffixes.
    pub(crate) name: String,
    /// The workload's fingerprint, tagged by the spec's reorder.
    pub(crate) fingerprint: u64,
    /// Rows, columns, nonzeros.
    pub(crate) shape: (usize, usize, usize),
}

impl SourceMeta {
    pub(crate) fn of<W: SpmvWorkload>(name: String, workload: &W, reorder: ReorderSpec) -> Self {
        SourceMeta {
            name,
            fingerprint: reorder.tag_fingerprint(workload.fingerprint()),
            shape: (workload.num_rows(), workload.num_cols(), workload.nnz()),
        }
    }
}

/// Decorates a matrix name with the non-default format/reorder/scenario
/// suffixes, e.g. `"band-7@rcm@sell:32,128@rhs16"`. CSR with natural
/// order and plain SpMV keeps the bare name, so existing batch outputs
/// are byte-identical. An SpMM view with `k = 1` also keeps the bare
/// name — it *is* the plain SpMV, bit for bit.
fn workload_name(
    base: &str,
    format: FormatSpec,
    reorder: ReorderSpec,
    scenario: ScenarioSpec,
) -> String {
    let mut name = base.to_string();
    if reorder != ReorderSpec::None {
        name.push('@');
        name.push_str(reorder.label());
    }
    if format != FormatSpec::Csr {
        name.push('@');
        name.push_str(&format.label());
    }
    match scenario {
        ScenarioSpec::Spmv | ScenarioSpec::Spmm { k: 1, .. } => {}
        ScenarioSpec::Spmm { k, layout } => {
            name.push_str(&format!("@rhs{k}"));
            if layout == RhsLayout::Separate {
                name.push_str(":col");
            }
        }
        ScenarioSpec::Cg => name.push_str("@cg"),
    }
    name
}

/// Turns a CSR matrix into the spec's workload: the reorder is applied,
/// then the format view is built, then the scenario view is wrapped
/// around it. A CG iteration needs a square matrix.
fn make_workload(
    name: String,
    matrix: CsrMatrix,
    format: FormatSpec,
    reorder: ReorderSpec,
    scenario: ScenarioSpec,
) -> Result<(String, Workload), EngineError> {
    if scenario == ScenarioSpec::Cg && matrix.num_rows() != matrix.num_cols() {
        return Err(EngineError::Scenario {
            name,
            message: format!(
                "a CG iteration needs a square matrix, got {}x{}",
                matrix.num_rows(),
                matrix.num_cols()
            ),
        });
    }
    Ok((
        workload_name(&name, format, reorder, scenario),
        Workload::build_scenario(matrix, format, reorder, scenario),
    ))
}

/// One matrix of a spec, in source order.
pub(crate) enum Entry<'s> {
    /// A generated matrix, built on demand.
    Key(SourceKey),
    /// A MatrixMarket file, read eagerly.
    Mtx(&'s Path),
}

/// Walks the spec's matrices in order without building any (a
/// `corpus count=N` line yields `N` keys lazily).
pub(crate) fn entries(spec: &crate::BatchSpec) -> impl Iterator<Item = Entry<'_>> {
    spec.sources.iter().flat_map(move |source| {
        (0..source_len(source)).map(move |index| match source {
            MatrixSource::MtxFile(path) => Entry::Mtx(path),
            _ => Entry::Key(SourceKey {
                source: source.clone(),
                index,
                format: spec.format,
                reorder: spec.reorder,
                scenario: spec.scenario,
            }),
        })
    })
}

/// Matrices the spec names.
pub(crate) fn num_matrices(spec: &crate::BatchSpec) -> usize {
    spec.sources
        .iter()
        .map(source_len)
        .fold(0, usize::saturating_add)
}

fn source_len(source: &MatrixSource) -> usize {
    match source {
        MatrixSource::Corpus { count, .. } => *count,
        MatrixSource::Table1 { .. } => corpus::TABLE1_LEN,
        MatrixSource::MtxFile(_) => 1,
    }
}

/// How a keyed slot builds its matrix into the slot's handle type.
type Build<H> = fn(&SourceKey) -> Result<(String, H), EngineError>;

/// One matrix of a run and the jobs still to use it. `H` is the slot's
/// handle on the matrix: `Arc<Workload>` for a matrix the engine built or
/// read, `&W` for one the caller built.
pub(crate) struct MatrixSlot<'a, H> {
    /// How to build the matrix; `None` for a pre-filled slot, which is
    /// never (re)built — it holds its matrix until its last job is done.
    key: Option<(SourceKey, Build<H>)>,
    state: Mutex<SlotState<'a, H>>,
    /// Jobs of this slot not yet finished; the last one releases it.
    remaining: AtomicUsize,
}

struct SlotState<'a, H> {
    meta: Option<Arc<SourceMeta>>,
    matrix: Option<H>,
    live: Option<LiveSource<'a>>,
}

impl<'a, W: SpmvWorkload, H: Deref<Target = W> + Clone> MatrixSlot<'a, H> {
    /// A pre-filled slot: the matrix and its meta are known up front.
    fn filled(matrix: H, meta: SourceMeta, live: Option<LiveSource<'a>>, jobs: usize) -> Self {
        MatrixSlot {
            key: None,
            state: Mutex::new(SlotState {
                meta: Some(Arc::new(meta)),
                matrix: Some(matrix),
                live,
            }),
            remaining: AtomicUsize::new(jobs),
        }
    }

    /// Adds `jobs` more jobs (a duplicate source sharing this slot).
    pub(crate) fn add_jobs(&mut self, jobs: usize) {
        *self.remaining.get_mut() += jobs;
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<'a, H>> {
        self.state.lock().expect("matrix slot poisoned")
    }

    /// The matrix's name, fingerprint and shape: from the slot, else from
    /// the cache's source memo, else by building the matrix.
    pub(crate) fn meta(
        &self,
        cache: &'a ProfileCache,
        ctx: &obs::RequestCtx,
    ) -> Result<Arc<SourceMeta>, EngineError> {
        let mut state = self.lock();
        if state.meta.is_none() {
            let (key, _) = self
                .key
                .as_ref()
                .expect("pre-filled slots carry their meta");
            match cache.source_meta(key) {
                Some(meta) => state.meta = Some(meta),
                None => self.build_into(&mut state, cache, ctx)?,
            }
        }
        Ok(Arc::clone(
            state.meta.as_ref().expect("meta resolved above"),
        ))
    }

    /// The matrix itself, built now if no earlier job of the run built it.
    pub(crate) fn workload(
        &self,
        cache: &'a ProfileCache,
        ctx: &obs::RequestCtx,
    ) -> Result<H, EngineError> {
        let mut state = self.lock();
        if state.matrix.is_none() {
            self.build_into(&mut state, cache, ctx)?;
        }
        Ok(state.matrix.clone().expect("matrix built above"))
    }

    /// Builds the keyed matrix under the slot lock (the slot's other jobs
    /// wait rather than build it twice) and records it in the memo.
    fn build_into(
        &self,
        state: &mut SlotState<'a, H>,
        cache: &'a ProfileCache,
        ctx: &obs::RequestCtx,
    ) -> Result<(), EngineError> {
        let (key, build) = self.key.as_ref().expect("only keyed slots are built");
        let _phase = ctx.phase(&["build"], Some("serve.phase.build_ns"));
        let (name, matrix) = build(key)?;
        let meta = Arc::new(SourceMeta::of(name, &*matrix, key.reorder));
        cache.remember_source(key.clone(), Arc::clone(&meta));
        state.live = Some(cache.source_built());
        state.matrix = Some(matrix);
        state.meta = Some(meta);
        Ok(())
    }

    /// Counts one finished job; the slot's last job releases the matrix.
    pub(crate) fn job_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut state = self.lock();
            state.matrix = None;
            state.live = None;
        }
    }
}

impl<'a, W: SpmvWorkload> MatrixSlot<'a, &'a W> {
    /// A slot holding a workload the caller built.
    pub(crate) fn given(name: &str, workload: &'a W, reorder: ReorderSpec, jobs: usize) -> Self {
        let meta = SourceMeta::of(name.to_string(), workload, reorder);
        Self::filled(workload, meta, None, jobs)
    }
}

impl<'a> MatrixSlot<'a, Arc<Workload>> {
    /// An empty slot for a generated matrix that `jobs` jobs will use.
    pub(crate) fn keyed(key: SourceKey, jobs: usize) -> Self {
        MatrixSlot {
            key: Some((key, |key| {
                key.build()
                    .map(|(name, workload)| (name, Arc::new(workload)))
            })),
            state: Mutex::new(SlotState {
                meta: None,
                matrix: None,
                live: None,
            }),
            remaining: AtomicUsize::new(jobs),
        }
    }

    /// Reads an `mtx` source into a pre-filled slot.
    pub(crate) fn read(
        path: &Path,
        spec: &crate::BatchSpec,
        cache: &'a ProfileCache,
        jobs: usize,
    ) -> Result<Self, EngineError> {
        let matrix = sparsemat::mm::read_csr_file(path).map_err(|e| EngineError::Matrix {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        let base = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let (name, workload) =
            make_workload(base, matrix, spec.format, spec.reorder, spec.scenario)?;
        let meta = SourceMeta::of(name, &workload, spec.reorder);
        Ok(Self::filled(
            Arc::new(workload),
            meta,
            Some(cache.source_built()),
            jobs,
        ))
    }
}
