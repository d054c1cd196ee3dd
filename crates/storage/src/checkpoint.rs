//! Durable on-disk serialization for checkpoints and the write-ahead log.
//!
//! Every artifact shares one framing discipline: an 8-byte magic, a version
//! byte, a little-endian length, the payload, and a CRC-32 (IEEE) over the
//! payload.  Readers validate magic, version, and checksum before parsing a
//! single payload byte, and every failure — truncation included — surfaces as
//! a typed [`StorageError`], never a panic.
//!
//! Two artifact kinds are defined here:
//!
//! * **Checkpoint** ([`write_checkpoint`] / [`read_checkpoint`]) — one
//!   [`Database`] snapshot tagged with the epoch it was taken at: the base
//!   state of crash recovery.
//! * **WAL frames** ([`write_wal_header`], [`write_batch_frame`] /
//!   [`read_batch_frame`]) — an append-friendly stream of individually
//!   CRC-framed [`DeltaBatch`]es for write-ahead logging.  Each frame is
//!   self-checking, so a reader can replay a crashed writer's log up to the
//!   first torn frame and ignore the tail.
//!
//! ## Format versions
//!
//! Version **2** (current) mirrors the in-memory flat interned layout: every
//! payload carries a **file-local value dictionary** (each distinct
//! [`Value`] once, in first-occurrence order) and encodes rows as dense
//! `u32` id tuples against it — checkpoint relations as flat id *columns*,
//! WAL batches as id rows.  Values that repeat across rows (the common
//! case for graph data) are serialized once instead of per occurrence.  WAL
//! batch frames use a frame-local dictionary so each frame stays
//! independently replayable; the WAL *file* version is declared by its
//! header frame.
//!
//! Writers emit and readers accept exactly [`FORMAT_VERSION`]; an artifact of
//! any older (v0, v1) or newer version is refused with a typed
//! [`StorageError::UnsupportedVersion`].
//!
//! The recovery invariant the formats exist to uphold:
//! `checkpoint ⊕ WAL tail = current state`, where the tail is every WAL frame
//! past the checkpoint's epoch.

use crate::database::Database;
use crate::delta::DeltaBatch;
use crate::hash::FastHashMap;
use crate::relation::Relation;
use crate::row::Row;
use crate::schema::Schema;
use crate::shared::Epoch;
use crate::value::Value;
use crate::{Result, StorageError};
use std::io::{Read, Write};
use std::sync::OnceLock;

/// Magic prefix of a serialized checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"DCQSNAP\0";
/// Magic prefix of a write-ahead-log file.
pub const WAL_MAGIC: &[u8; 8] = b"DCQWAL\0\0";
/// The one serialization format version this build reads and writes.
pub const FORMAT_VERSION: u8 = 2;

/// Hard ceiling on any framed payload (64 GiB); a declared length beyond it
/// is treated as corruption instead of an allocation attempt.
const MAX_PAYLOAD: u64 = 1 << 36;
/// Ceiling on a single WAL batch frame (1 GiB).
const MAX_FRAME: u32 = 1 << 30;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        let mut i = 0u32;
        while i < 256 {
            let mut crc = i;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i as usize] = crc;
            i += 1;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Payload encoding / decoding primitives
// ---------------------------------------------------------------------------

fn corrupt(artifact: &'static str, detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        artifact,
        detail: detail.into(),
    }
}

/// File-local value dictionary built while encoding one v2 payload: each
/// distinct value gets a dense id in first-occurrence order.  This is the
/// serialized twin of the store's in-memory
/// [`ValueDict`](crate::dict::ValueDict), rebuilt per artifact so files stay
/// self-contained and ids stay small.
#[derive(Default)]
struct FileDict {
    by_value: FastHashMap<Value, u32>,
    values: Vec<Value>,
}

impl FileDict {
    fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.by_value.get(v) {
            return id;
        }
        let id = self.values.len() as u32;
        self.by_value.insert(v.clone(), id);
        self.values.push(v.clone());
        id
    }

    fn id_of(&self, v: &Value) -> u32 {
        self.by_value[v]
    }

    fn absorb_row(&mut self, row: &Row) {
        for v in row.iter() {
            self.intern(v);
        }
    }

    fn absorb_batch(&mut self, batch: &DeltaBatch) {
        for (_, ops) in batch.iter() {
            for (row, _) in ops {
                self.absorb_row(row);
            }
        }
    }
}

/// Append-only payload encoder.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Str(s) => {
                self.u8(1);
                self.str(s);
            }
            Value::Null => self.u8(2),
        }
    }

    /// The file-local dictionary: count, then every value once in id order.
    fn dict(&mut self, dict: &FileDict) {
        self.u32(dict.values.len() as u32);
        for v in &dict.values {
            self.value(v);
        }
    }

    /// One relation in v2 layout: schema, then the rows as `arity` flat id
    /// **columns** against `dict` — the serialized form of the store's
    /// [`RelationStore`](crate::flat::RelationStore).
    fn relation(&mut self, rel: &Relation, dict: &FileDict) {
        self.str(rel.name());
        self.u16(rel.schema().arity() as u16);
        for attr in rel.schema().attrs() {
            self.str(attr.name());
        }
        self.u64(rel.len() as u64);
        for p in 0..rel.schema().arity() {
            for row in rel.iter() {
                self.u32(dict.id_of(row.get(p)));
            }
        }
    }

    fn database(&mut self, db: &Database, dict: &FileDict) {
        self.u32(db.relation_count() as u32);
        for (_, rel) in db.iter() {
            self.relation(rel, dict);
        }
    }

    /// One batch in v2 layout: rows as id tuples against `dict`.
    fn batch(&mut self, batch: &DeltaBatch, dict: &FileDict) {
        self.u32(batch.relations().count() as u32);
        for (name, ops) in batch.iter() {
            self.str(name);
            self.u32(ops.len() as u32);
            for (row, sign) in ops {
                self.u8(if *sign >= 0 { b'+' } else { b'-' });
                self.u16(row.arity() as u16);
                for v in row.iter() {
                    self.u32(dict.id_of(v));
                }
            }
        }
    }
}

/// Cursor-based payload decoder; every read is bounds-checked and a short
/// buffer is reported as corruption of `artifact`.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    artifact: &'static str,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], artifact: &'static str) -> Self {
        Dec {
            buf,
            pos: 0,
            artifact,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| corrupt(self.artifact, "payload ends mid-field"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(self.artifact, "string field is not valid UTF-8"))
    }

    fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::str(self.str()?)),
            2 => Ok(Value::Null),
            tag => Err(corrupt(self.artifact, format!("unknown value tag {tag}"))),
        }
    }

    /// The file-local dictionary of a v2 payload.
    fn dict(&mut self) -> Result<Vec<Value>> {
        let count = self.u32()? as u64;
        if count > MAX_PAYLOAD {
            return Err(corrupt(self.artifact, "implausible dictionary size"));
        }
        let mut values = Vec::with_capacity(count as usize);
        for _ in 0..count {
            values.push(self.value()?);
        }
        Ok(values)
    }

    /// One dictionary id, validated against the file dictionary.
    fn id<'d>(&mut self, dict: &'d [Value]) -> Result<&'d Value> {
        let id = self.u32()? as usize;
        dict.get(id)
            .ok_or_else(|| corrupt(self.artifact, format!("dictionary id {id} out of range")))
    }

    fn relation(&mut self, dict: &[Value]) -> Result<Relation> {
        let name = self.str()?;
        let arity = self.u16()? as usize;
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            attrs.push(self.str()?);
        }
        let schema = Schema::from_names(attrs);
        let mut rel = Relation::new(name, schema);
        let rows = self.u64()?;
        if rows > MAX_PAYLOAD {
            return Err(corrupt(self.artifact, "implausible row count"));
        }
        let rows = rows as usize;
        // Flat columns: `arity` runs of `rows` ids each; transpose back into
        // row tuples through the file dictionary.
        let mut cols: Vec<Vec<&Value>> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                col.push(self.id(dict)?);
            }
            cols.push(col);
        }
        rel.reserve(rows);
        for r in 0..rows {
            rel.push_unchecked(Row::new(cols.iter().map(|col| col[r].clone()).collect()));
        }
        // A checkpointed store holds set-semantics relations; writers only
        // emit deduplicated stores, but dedup anyway so a hand-edited file
        // cannot smuggle duplicates past the invariant.
        rel.dedup();
        Ok(rel)
    }

    fn database(&mut self, dict: &[Value]) -> Result<Database> {
        let count = self.u32()?;
        let mut db = Database::new();
        for _ in 0..count {
            db.add(self.relation(dict)?)?;
        }
        Ok(db)
    }

    fn batch(&mut self, dict: &[Value]) -> Result<DeltaBatch> {
        let relations = self.u32()?;
        let mut batch = DeltaBatch::new();
        for _ in 0..relations {
            let name = self.str()?;
            let ops = self.u32()?;
            for _ in 0..ops {
                let sign = match self.u8()? {
                    b'+' => 1,
                    b'-' => -1,
                    tag => return Err(corrupt(self.artifact, format!("unknown op sign {tag:#x}"))),
                };
                let arity = self.u16()? as usize;
                let mut values = Vec::with_capacity(arity);
                for _ in 0..arity {
                    values.push(self.id(dict)?.clone());
                }
                batch.push(&name, Row::new(values), sign);
            }
        }
        Ok(batch)
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(corrupt(
                self.artifact,
                format!("{} trailing payload bytes", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File-level framing
// ---------------------------------------------------------------------------

/// Write `magic · FORMAT_VERSION · len · payload · crc32(payload)` to `w`.
fn write_framed<W: Write>(w: &mut W, magic: &[u8; 8], payload: &[u8]) -> Result<()> {
    w.write_all(magic)?;
    w.write_all(&[FORMAT_VERSION])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Read and validate one framed payload; the inverse of [`write_framed`].
/// Any version other than [`FORMAT_VERSION`] is a typed
/// [`StorageError::UnsupportedVersion`].
fn read_framed<R: Read>(r: &mut R, magic: &[u8; 8], artifact: &'static str) -> Result<Vec<u8>> {
    let mut head = [0u8; 8];
    read_exact(r, &mut head, artifact)?;
    if &head != magic {
        return Err(corrupt(artifact, "bad magic"));
    }
    let mut version = [0u8; 1];
    read_exact(r, &mut version, artifact)?;
    let version = version[0];
    if version != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            artifact,
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut len = [0u8; 8];
    read_exact(r, &mut len, artifact)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_PAYLOAD {
        return Err(corrupt(artifact, "implausible payload length"));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload, artifact)?;
    let mut crc = [0u8; 4];
    read_exact(r, &mut crc, artifact)?;
    if u32::from_le_bytes(crc) != crc32(&payload) {
        return Err(corrupt(artifact, "checksum mismatch"));
    }
    Ok(payload)
}

/// `read_exact` with truncation mapped to a typed corruption error.
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], artifact: &'static str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(artifact, "truncated input")
        } else {
            StorageError::Io(e.to_string())
        }
    })
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Serialize a database snapshot taken at `epoch` to `w`.
///
/// The v2 payload is the flat interned layout: one file-local dictionary of
/// every distinct value, then each relation as `arity` dense `u32` id
/// columns.  Nothing in `db` is cloned beyond the dictionary's distinct
/// values, so serializing costs two traversals of the state plus the
/// serialized bytes — which repeat no value twice.
pub fn write_checkpoint<W: Write>(w: &mut W, epoch: Epoch, db: &Database) -> Result<()> {
    let mut dict = FileDict::default();
    for (_, rel) in db.iter() {
        for row in rel.iter() {
            dict.absorb_row(row);
        }
    }
    let mut enc = Enc::new();
    enc.u64(epoch);
    enc.dict(&dict);
    enc.database(db, &dict);
    write_framed(w, CHECKPOINT_MAGIC, &enc.buf)
}

/// Read back a checkpoint written by [`write_checkpoint`].
pub fn read_checkpoint<R: Read>(r: &mut R) -> Result<(Epoch, Database)> {
    let payload = read_framed(r, CHECKPOINT_MAGIC, "checkpoint")?;
    let mut dec = Dec::new(&payload, "checkpoint");
    let epoch = dec.u64()?;
    let dict = dec.dict()?;
    let db = dec.database(&dict)?;
    dec.finish()?;
    Ok((epoch, db))
}

// ---------------------------------------------------------------------------
// WAL frames
// ---------------------------------------------------------------------------

/// Write a WAL file header declaring `base_epoch`: the epoch of the state the
/// first appended frame applies to.
pub fn write_wal_header<W: Write>(w: &mut W, base_epoch: Epoch) -> Result<()> {
    write_framed(w, WAL_MAGIC, &base_epoch.to_le_bytes())
}

/// Read back a WAL header written by [`write_wal_header`], returning the base
/// epoch.
pub fn read_wal_header<R: Read>(r: &mut R) -> Result<Epoch> {
    let payload = read_framed(r, WAL_MAGIC, "write-ahead log")?;
    let bytes: [u8; 8] = payload
        .as_slice()
        .try_into()
        .map_err(|_| corrupt("write-ahead log", "header payload is not 8 bytes"))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Append one self-checking batch frame (`len · crc · payload`) to `w`,
/// returning the number of bytes written.  The payload carries a frame-local
/// dictionary followed by the batch as id rows, so every frame remains
/// independently replayable.
pub fn write_batch_frame<W: Write>(w: &mut W, batch: &DeltaBatch) -> Result<usize> {
    let mut dict = FileDict::default();
    dict.absorb_batch(batch);
    let mut enc = Enc::new();
    enc.dict(&dict);
    enc.batch(batch, &dict);
    w.write_all(&(enc.buf.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(&enc.buf).to_le_bytes())?;
    w.write_all(&enc.buf)?;
    Ok(8 + enc.buf.len())
}

/// Read the next batch frame from `r` (after [`read_wal_header`]).
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary).  A frame cut short by a crash, or one whose checksum does not
/// match, is a [`StorageError::Corrupt`] — WAL readers treat the first such
/// error as the torn tail of an interrupted append and stop there.
pub fn read_batch_frame<R: Read>(r: &mut R) -> Result<Option<DeltaBatch>> {
    const ARTIFACT: &str = "write-ahead log";
    // Read the length word by hand: zero bytes is a clean EOF, a partial word
    // is a torn frame.
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(corrupt(ARTIFACT, "torn frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StorageError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(corrupt(ARTIFACT, "implausible frame length"));
    }
    let mut crc = [0u8; 4];
    read_exact(r, &mut crc, ARTIFACT)?;
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload, ARTIFACT)?;
    if u32::from_le_bytes(crc) != crc32(&payload) {
        return Err(corrupt(ARTIFACT, "frame checksum mismatch"));
    }
    let mut dec = Dec::new(&payload, ARTIFACT);
    let dict = dec.dict()?;
    let batch = dec.batch(&dict)?;
    dec.finish()?;
    Ok(Some(batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::int_row;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_int_rows(
            "Graph",
            &["src", "dst"],
            vec![vec![1, 2], vec![2, 3], vec![3, 1]],
        ))
        .unwrap();
        let mut named = Relation::new("Named", Schema::from_names(["id", "label"]));
        named
            .insert(Row::new(vec![Value::Int(1), Value::str("alpha")]))
            .unwrap();
        named
            .insert(Row::new(vec![Value::Int(2), Value::Null]))
            .unwrap();
        db.add(named).unwrap();
        db
    }

    fn sample_batch(step: i64) -> DeltaBatch {
        let mut b = DeltaBatch::new();
        b.insert("Graph", int_row([40 + step, step]));
        b.delete("Graph", int_row([1, 2]));
        b.push(
            "Named",
            Row::new(vec![Value::Int(9 + step), Value::str("new")]),
            1,
        );
        b
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoint_round_trips() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, 17, &db).unwrap();
        assert_eq!(buf[8], FORMAT_VERSION, "writers emit the current version");
        let (epoch, back) = read_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(epoch, 17);
        assert_eq!(back.relation_names(), db.relation_names());
        for name in db.relation_names() {
            assert_eq!(
                back.get(&name).unwrap().sorted_rows(),
                db.get(&name).unwrap().sorted_rows()
            );
        }
    }

    #[test]
    fn dictionary_deduplicates_repeated_values() {
        // 200 distinct rows over 20 distinct values: the v2 payload must stay
        // far below the inline-value encoding (each Int costs 9 bytes inline,
        // 4 as id, and each distinct value is serialized exactly once).
        let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i / 10, i % 10]).collect();
        let mut db = Database::new();
        db.add(Relation::from_int_rows("Dense", &["a", "b"], rows))
            .unwrap();
        let mut v2 = Vec::new();
        write_checkpoint(&mut v2, 0, &db).unwrap();
        // Inline rows alone: a u16 arity plus a tagged i64 per value.
        let inline_bytes = 200 * (2 + 2 * 9);
        assert!(
            v2.len() * 2 < inline_bytes,
            "flat id columns ({} bytes) must at least halve the inline encoding ({inline_bytes} bytes)",
            v2.len(),
        );
        let (_, back) = read_checkpoint(&mut v2.as_slice()).unwrap();
        assert_eq!(
            back.get("Dense").unwrap().sorted_rows(),
            db.get("Dense").unwrap().sorted_rows()
        );
    }

    #[test]
    fn corrupt_dictionary_ids_are_typed_errors() {
        // Hand-build a v2 payload whose row ids point past the dictionary.
        let mut enc = Enc::new();
        enc.u64(0); // epoch
        let mut dict = FileDict::default();
        dict.intern(&Value::Int(1));
        enc.dict(&dict); // 1 entry → only id 0 is valid
        enc.u32(1); // one relation
        enc.str("R");
        enc.u16(1);
        enc.str("a");
        enc.u64(1); // one row
        enc.u32(5); // id 5 out of range
        let mut buf = Vec::new();
        write_framed(&mut buf, CHECKPOINT_MAGIC, &enc.buf).unwrap();
        let err = read_checkpoint(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt { detail, .. } if detail.contains("dictionary id")),
            "expected a dictionary-range corruption, got {err:?}"
        );
    }

    #[test]
    fn wal_frames_round_trip_and_stop_cleanly() {
        let mut buf = Vec::new();
        write_wal_header(&mut buf, 41).unwrap();
        for step in 0..3 {
            write_batch_frame(&mut buf, &sample_batch(step)).unwrap();
        }
        let mut r = buf.as_slice();
        assert_eq!(buf[8], FORMAT_VERSION, "writers emit the current version");
        assert_eq!(read_wal_header(&mut r).unwrap(), 41);
        let mut batches = Vec::new();
        while let Some(batch) = read_batch_frame(&mut r).unwrap() {
            batches.push(batch);
        }
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[2], sample_batch(2));
    }

    #[test]
    fn torn_wal_tail_is_a_typed_error() {
        let mut buf = Vec::new();
        write_wal_header(&mut buf, 0).unwrap();
        let header_len = buf.len();
        write_batch_frame(&mut buf, &sample_batch(0)).unwrap();
        let full = buf.len();
        write_batch_frame(&mut buf, &sample_batch(1)).unwrap();
        // Cut the second frame mid-payload, as a crash during append would.
        for cut in [full + 2, full + 6, full + 9, buf.len() - 1] {
            let torn = &buf[..cut];
            let mut r = torn;
            read_wal_header(&mut r).unwrap();
            assert_eq!(
                read_batch_frame(&mut r).unwrap(),
                Some(sample_batch(0)),
                "intact first frame must still read"
            );
            assert!(matches!(
                read_batch_frame(&mut r),
                Err(StorageError::Corrupt { .. })
            ));
        }
        // Truncating inside the header is also typed, not a panic.
        let mut r = &buf[..header_len - 3];
        assert!(matches!(
            read_wal_header(&mut r),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn corrupted_and_truncated_checkpoints_are_typed_errors() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, 3, &db).unwrap();

        // Truncation at every prefix length: typed error, no panic.
        for cut in 0..buf.len() {
            let err = read_checkpoint(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "cut at {cut} gave {err:?}"
            );
        }

        // A flipped payload byte fails the checksum.
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            read_checkpoint(&mut flipped.as_slice()),
            Err(StorageError::Corrupt { .. })
        ));

        // Wrong magic is corruption; version skew (older or newer) is a
        // distinct typed error for every framed artifact.
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_checkpoint(&mut wrong_magic.as_slice()),
            Err(StorageError::Corrupt { .. })
        ));
        let mut wal_buf = Vec::new();
        write_wal_header(&mut wal_buf, 3).unwrap();
        type Reader = fn(&[u8]) -> Result<()>;
        let artifacts: [(&[u8], Reader); 2] = [
            (&buf, |b| read_checkpoint(&mut &b[..]).map(drop)),
            (&wal_buf, |b| read_wal_header(&mut &b[..]).map(drop)),
        ];
        for (bytes, read) in artifacts {
            for version in [0, 1, FORMAT_VERSION + 1] {
                let mut skewed = bytes.to_vec();
                skewed[8] = version;
                let err = read(&skewed).unwrap_err();
                assert!(
                    matches!(err, StorageError::UnsupportedVersion { found, supported: 2, .. }
                        if found == version),
                    "version {version} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn corrupted_log_is_a_typed_error() {
        // A write-ahead log cut inside its header, or with a flipped byte in
        // the header or a frame, is typed corruption — never a panic.
        let mut buf = Vec::new();
        write_wal_header(&mut buf, 0).unwrap();
        let header_len = buf.len();
        write_batch_frame(&mut buf, &sample_batch(0)).unwrap();
        for cut in 0..header_len {
            assert!(matches!(
                read_wal_header(&mut &buf[..cut]),
                Err(StorageError::Corrupt { .. })
            ));
        }
        for flip in [header_len - 1, buf.len() - 1] {
            let mut damaged = buf.clone();
            damaged[flip] ^= 0x01;
            let mut r = damaged.as_slice();
            let read = read_wal_header(&mut r).and_then(|_| read_batch_frame(&mut r));
            assert!(
                matches!(read, Err(StorageError::Corrupt { .. })),
                "flip at {flip} gave {read:?}"
            );
        }
    }

    #[test]
    fn approx_bytes_tracks_batch_contents() {
        let empty = DeltaBatch::new();
        let loaded = sample_batch(0);
        assert!(loaded.approx_bytes() > empty.approx_bytes());
    }
}
