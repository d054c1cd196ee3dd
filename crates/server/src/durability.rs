//! The durability half of the service: write-ahead log + checkpoint files and
//! crash recovery.
//!
//! On-disk layout inside the configured directory (formats from
//! [`dcq_storage::checkpoint`] — versioned headers, CRC-framed payloads):
//!
//! * `state.ckpt` — the newest database checkpoint (epoch + full state),
//!   always replaced atomically (`state.ckpt.tmp` + rename).
//! * `wal.log` — a header declaring its base epoch, then one self-checking
//!   frame per batch appended **before** that batch is applied and
//!   acknowledged.
//!
//! The invariant the two files uphold together:
//! **`checkpoint ⊕ retained WAL tail = current state`.**  Scheduled
//! compaction (the engine's [`CheckpointSink`] hook) replaces the checkpoint
//! first and only then rotates the WAL, so a crash between the two steps
//! leaves a WAL whose leading `checkpoint_epoch − wal_base_epoch` records are
//! already reflected in the checkpoint — [`recover`] skips exactly that many
//! and replays the rest.  A frame torn by a crash mid-append fails its CRC
//! and is treated as the end of the stream: the batch it held was never
//! acknowledged.

use dcq_engine::{CheckpointSink, DcqEngine};
use dcq_storage::checkpoint::{
    read_batch_frame, read_checkpoint, read_wal_header, write_batch_frame, write_checkpoint,
    write_wal_header,
};
use dcq_storage::{Database, DeltaBatch, Epoch, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Checkpoint file name inside the durability directory.
pub const CHECKPOINT_FILE: &str = "state.ckpt";
/// Write-ahead log file name inside the durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Durability settings for a server.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding `state.ckpt` and `wal.log` (created if missing).
    pub dir: PathBuf,
    /// `sync_all` after every WAL append and checkpoint write.  Off by
    /// default: the service then survives process crashes (the acked data has
    /// left the process in page cache) but not power loss — the right trade
    /// for a benchmarkable default on a development box.
    pub fsync: bool,
}

impl DurabilityConfig {
    /// Durability rooted at `dir`, `fsync` off.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: false,
        }
    }
}

fn storage_to_io(e: StorageError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The open WAL writer; shared (behind a mutex) between the ingest loop that
/// appends and the engine's checkpoint sink that rotates.
pub(crate) struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    fsync: bool,
}

impl WalWriter {
    /// Create (truncate) the WAL at `path` with a header declaring
    /// `base_epoch`.
    fn create(path: PathBuf, base_epoch: Epoch, fsync: bool) -> io::Result<WalWriter> {
        let mut file = BufWriter::new(File::create(&path)?);
        write_wal_header(&mut file, base_epoch).map_err(storage_to_io)?;
        file.flush()?;
        if fsync {
            file.get_ref().sync_all()?;
        }
        Ok(WalWriter { path, file, fsync })
    }

    /// Append one batch frame and push it out of the process (flush, plus
    /// `sync_all` when configured), returning the frame's size in bytes.
    /// Must complete before the batch is acknowledged.
    pub(crate) fn append(&mut self, batch: &DeltaBatch) -> io::Result<usize> {
        let wrote = write_batch_frame(&mut self.file, batch).map_err(storage_to_io)?;
        self.file.flush()?;
        if self.fsync {
            self.file.get_ref().sync_all()?;
        }
        Ok(wrote)
    }

    /// Atomically replace the WAL with an empty one based at `epoch`
    /// (tmp + rename); called right after the checkpoint covering everything
    /// before `epoch` has been persisted.
    fn rotate(&mut self, epoch: Epoch) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut fresh = BufWriter::new(File::create(&tmp)?);
            write_wal_header(&mut fresh, epoch).map_err(storage_to_io)?;
            fresh.flush()?;
            if self.fsync {
                fresh.get_ref().sync_all()?;
            }
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }
}

/// The live durability state of a running server: the shared WAL writer plus
/// the directory the checkpoints go to.
pub(crate) struct Durability {
    dir: PathBuf,
    fsync: bool,
    pub(crate) wal: Arc<Mutex<WalWriter>>,
}

impl Durability {
    /// Start durability for `engine`'s current state: persist a fresh
    /// checkpoint at its epoch and open an empty WAL based there.  Called on
    /// every server start (fresh or recovered), so the on-disk pair is always
    /// internally consistent before the first client connects.
    pub(crate) fn initialize(config: &DurabilityConfig, engine: &DcqEngine) -> io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let epoch = engine.epoch();
        write_checkpoint_file(&config.dir, config.fsync, epoch, engine.database())?;
        let wal = WalWriter::create(config.dir.join(WAL_FILE), epoch, config.fsync)?;
        Ok(Durability {
            dir: config.dir.clone(),
            fsync: config.fsync,
            wal: Arc::new(Mutex::new(wal)),
        })
    }

    /// The [`CheckpointSink`] to install on the engine: checkpoint first,
    /// rotate the WAL second (the order [`recover`]'s skip logic relies on).
    pub(crate) fn sink(&self) -> Box<dyn CheckpointSink> {
        Box::new(FileCheckpointSink {
            dir: self.dir.clone(),
            fsync: self.fsync,
            wal: Arc::clone(&self.wal),
        })
    }
}

fn write_checkpoint_file(dir: &Path, fsync: bool, epoch: Epoch, db: &Database) -> io::Result<()> {
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        write_checkpoint(&mut f, epoch, db).map_err(storage_to_io)?;
        f.flush()?;
        if fsync {
            f.get_ref().sync_all()?;
        }
    }
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    Ok(())
}

struct FileCheckpointSink {
    dir: PathBuf,
    fsync: bool,
    wal: Arc<Mutex<WalWriter>>,
}

impl CheckpointSink for FileCheckpointSink {
    fn write_checkpoint(&mut self, epoch: Epoch, database: &Database) -> io::Result<()> {
        write_checkpoint_file(&self.dir, self.fsync, epoch, database)?;
        // Only rotate once the checkpoint covering the old WAL is durable; a
        // crash in between leaves overlap, which recovery skips by epoch
        // arithmetic, never loss.
        self.wal
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .rotate(epoch)
    }
}

/// What [`recover`] found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the recovered checkpoint.
    pub checkpoint_epoch: Epoch,
    /// Base epoch the WAL declared.
    pub wal_base_epoch: Epoch,
    /// Leading WAL records skipped because the checkpoint already reflected
    /// them (`checkpoint_epoch − wal_base_epoch`).
    pub skipped: usize,
    /// WAL records replayed onto the checkpoint.
    pub replayed: usize,
    /// `true` iff the WAL ended in a torn (CRC-failing or cut-short) frame —
    /// the signature of a crash mid-append; the frame's batch was never
    /// acknowledged and is discarded.
    pub torn_tail: bool,
}

/// Rebuild an engine from `dir`: read the checkpoint, skip the WAL prefix the
/// checkpoint subsumes, and replay the tail.  The recovered engine resumes at
/// exactly the epoch the pre-crash engine last acknowledged (plus any batches
/// that were logged but not yet acked — standard WAL semantics).
pub fn recover(dir: impl AsRef<Path>) -> io::Result<(DcqEngine, RecoveryReport)> {
    let dir = dir.as_ref();
    let mut ckpt = BufReader::new(File::open(dir.join(CHECKPOINT_FILE))?);
    let (checkpoint_epoch, db) = read_checkpoint(&mut ckpt).map_err(storage_to_io)?;

    let mut wal = BufReader::new(File::open(dir.join(WAL_FILE))?);
    let wal_base_epoch = read_wal_header(&mut wal).map_err(storage_to_io)?;
    if wal_base_epoch > checkpoint_epoch {
        return Err(io::Error::other(format!(
            "WAL base epoch {wal_base_epoch} is ahead of checkpoint epoch {checkpoint_epoch}; \
             the directory mixes files from different runs"
        )));
    }
    let mut batches = Vec::new();
    let mut torn_tail = false;
    loop {
        match read_batch_frame(&mut wal) {
            Ok(Some(batch)) => batches.push(batch),
            Ok(None) => break,
            Err(StorageError::Corrupt { .. }) => {
                // Crash mid-append: everything after this point was never
                // acknowledged.  Stop here.
                torn_tail = true;
                break;
            }
            Err(e) => return Err(storage_to_io(e)),
        }
    }

    // The WAL logs each batch *before* it is applied, so batch `i` advances
    // epoch `wal_base + i` — the first `checkpoint_epoch − wal_base` records
    // are already inside the checkpoint.
    let skipped = (checkpoint_epoch - wal_base_epoch) as usize;
    let mut engine = DcqEngine::with_database_at(db, checkpoint_epoch);
    let mut replayed = 0;
    for batch in batches.iter().skip(skipped) {
        engine
            .apply(batch)
            .map_err(|e| io::Error::other(format!("WAL replay failed: {e}")))?;
        replayed += 1;
    }
    Ok((
        engine,
        RecoveryReport {
            checkpoint_epoch,
            wal_base_epoch,
            skipped,
            replayed,
            torn_tail,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcq_storage::row::int_row;
    use dcq_storage::Relation;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dcq-server-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_engine() -> DcqEngine {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3]],
        ))
        .unwrap();
        DcqEngine::with_database(db)
    }

    fn push_batch(step: i64) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.insert("Graph", int_row([100 + step, step]));
        b
    }

    #[test]
    fn initialize_append_recover_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut engine = seeded_engine();
        let durability = Durability::initialize(&DurabilityConfig::at(&dir), &engine).unwrap();
        for step in 0..5 {
            let batch = push_batch(step);
            durability.wal.lock().unwrap().append(&batch).unwrap();
            engine.apply(&batch).unwrap();
        }
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(
            report,
            RecoveryReport {
                checkpoint_epoch: 0,
                wal_base_epoch: 0,
                skipped: 0,
                replayed: 5,
                torn_tail: false,
            }
        );
        assert_eq!(recovered.epoch(), engine.epoch());
        assert_eq!(
            recovered.database().get("Graph").unwrap().sorted_rows(),
            engine.database().get("Graph").unwrap().sorted_rows()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_rotation_skips_the_covered_prefix() {
        let dir = temp_dir("rotate");
        let mut engine = seeded_engine();
        let durability = Durability::initialize(&DurabilityConfig::at(&dir), &engine).unwrap();
        let mut sink = durability.sink();
        for step in 0..3 {
            let batch = push_batch(step);
            durability.wal.lock().unwrap().append(&batch).unwrap();
            engine.apply(&batch).unwrap();
        }
        // Checkpoint at epoch 3 → WAL rotates to base 3.
        sink.write_checkpoint(engine.epoch(), engine.database())
            .unwrap();
        for step in 3..5 {
            let batch = push_batch(step);
            durability.wal.lock().unwrap().append(&batch).unwrap();
            engine.apply(&batch).unwrap();
        }
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.checkpoint_epoch, 3);
        assert_eq!(report.wal_base_epoch, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.replayed, 2);
        assert_eq!(recovered.epoch(), 5);

        // Now simulate the crash window *between* checkpoint rename and WAL
        // rotation: write a newer checkpoint directly, leaving the WAL alone.
        write_checkpoint_file(&dir, false, engine.epoch(), engine.database()).unwrap();
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(report.checkpoint_epoch, 5);
        assert_eq!(report.wal_base_epoch, 3);
        assert_eq!(report.skipped, 2, "overlap is skipped, not re-applied");
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.epoch(), 5);
        assert_eq!(
            recovered.database().get("Graph").unwrap().sorted_rows(),
            engine.database().get("Graph").unwrap().sorted_rows()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_discarded_not_fatal() {
        let dir = temp_dir("torn");
        let mut engine = seeded_engine();
        let durability = Durability::initialize(&DurabilityConfig::at(&dir), &engine).unwrap();
        for step in 0..3 {
            let batch = push_batch(step);
            durability.wal.lock().unwrap().append(&batch).unwrap();
            engine.apply(&batch).unwrap();
        }
        drop(durability);
        // Tear the last frame, as a crash mid-append would.
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (recovered, report) = recover(&dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 2, "only the intact frames replay");
        assert_eq!(recovered.epoch(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
