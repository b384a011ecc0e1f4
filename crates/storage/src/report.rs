//! The writer's tally: the one counter block a flush job, a shard and a
//! run share.

use crate::inject::RetryCounters;

/// The writer-side tally of one flush job, one shard or one run: how many
/// flush jobs completed, how many data `fsync` calls reaching their
/// durability points actually cost, and how full the batches they
/// completed in were. The writer counts into a job's tally where the work
/// happens, the job's completion report carries it whole, and shard and
/// run totals are [`WriterStats::merge`]s of it — so the counts are exact,
/// not sampled, and a counter is spelled once between the place it is
/// counted and the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Flush jobs completed.
    pub flush_jobs: u64,
    /// Data `fsync` calls issued. The durability scheduler attributes
    /// every call to exactly one job (the one that triggered it), so the
    /// per-job sum is the true call count: `flush_jobs` under per-job
    /// durability with data syncing on, fewer when cross-shard fsync
    /// coalescing merged same-file targets, zero with syncing off.
    pub data_fsyncs: u64,
    /// `syncfs`-style whole-device barriers issued, attributed the same
    /// way (exactly one job per call). A barrier replaces the per-file
    /// fsyncs of every same-device file in its batch, so runs with the
    /// device barrier engaged report fewer `data_fsyncs` and a nonzero
    /// count here. Zero when the barrier is off or `syncfs` unavailable.
    pub device_syncs: u64,
    /// Sum over jobs of the occupancy of the batch each completed in.
    pub batch_jobs_sum: u64,
    /// Largest batch any job completed in.
    pub max_batch_jobs: u32,
    /// Object image bytes the writer flushed: `objects × object_size`
    /// per job under both disk organizations. A log segment's header,
    /// record ids and end marker are not counted, nor are metadata
    /// commits.
    pub bytes_written: u64,
    /// Retry attempts performed on transient I/O faults (each re-issue
    /// of a failed data write / fsync / meta commit under the bounded
    /// retry policy) and operations whose budget ran out — the error
    /// propagated as a typed run error. [`RetryPolicy::run`] books into
    /// this member directly.
    ///
    /// [`RetryPolicy::run`]: crate::inject::RetryPolicy::run
    pub retry: RetryCounters,
}

impl WriterStats {
    /// Fold another tally (a job's into its shard's, a shard's into the
    /// run's) into this one. The destructure is exhaustive on purpose: a
    /// counter added to the struct but not folded here does not compile.
    pub fn merge(&mut self, other: WriterStats) {
        let WriterStats {
            flush_jobs,
            data_fsyncs,
            device_syncs,
            batch_jobs_sum,
            max_batch_jobs,
            bytes_written,
            retry: RetryCounters { retries, exhausted },
        } = other;
        self.flush_jobs += flush_jobs;
        self.data_fsyncs += data_fsyncs;
        self.device_syncs += device_syncs;
        self.batch_jobs_sum += batch_jobs_sum;
        self.max_batch_jobs = self.max_batch_jobs.max(max_batch_jobs);
        self.bytes_written += bytes_written;
        self.retry.retries += retries;
        self.retry.exhausted += exhausted;
    }
}
