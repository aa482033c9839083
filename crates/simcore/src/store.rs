//! Content-addressed, crash-safe result store for sweep services.
//!
//! A million-point sweep must never recompute the world: every completed
//! row is persisted under a key derived from *what produced it* — the
//! canonical scenario/config bytes, the seed, and a code-version tag —
//! so a re-run (or a resumed run after a kill) executes only the rows the
//! store does not already hold. The pieces:
//!
//! * [`Digest`] — a 128-bit FNV-1a job key (two independent 64-bit lanes)
//!   over `(canonical bytes, seed, code tag)`. A digest is a pure function
//!   of its inputs: same job ⇒ same digest across clones, worker counts
//!   and process restarts; any input change ⇒ a different digest.
//! * [`Store`] — the on-disk store: one entry per digest at
//!   `<root>/<shard>/<hex>` (shard = first two hex chars, so a million
//!   entries spread over 256 directories). Entries carry a self-describing
//!   header (magic, code tag, payload length, payload checksum); reads
//!   validate all four, so truncation, corruption and stale code versions
//!   are *detected and reported* ([`ReadError`]) rather than silently
//!   served. Writes are write-temp-then-rename, so a kill mid-write can
//!   never leave a half-entry under a valid name.
//! * [`Manifest`] — the sweep checkpoint: the sorted set of completed
//!   digests, saved atomically (temp + rename) so a killed sweep resumes
//!   from a consistent snapshot. The store itself remains the source of
//!   truth — rows completed after the last checkpoint are found by
//!   probing — the manifest records progress and pins the grid identity.
//! * [`Checkpointer`] — the cadence policy for manifest snapshots: every
//!   N rows or every T of wall time, whichever comes first. The wall
//!   clock here is the one legitimate nondeterminism in the store layer:
//!   it only decides *when* a snapshot is taken, never what any file
//!   eventually contains.
//!
//! The store assumes a single writing process (the sweep runner); open
//! sweeps away stale temp files left by a killed predecessor.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The code-version tag baked into every digest and entry header. Bump it
/// whenever a change alters simulation *results* (not just performance):
/// old entries then stop matching any digest, and any entry reached by
/// other means is rejected as [`ReadError::StaleTag`] and recomputed.
pub const CODE_TAG: &str = "starvation-sim/1";

/// Store entry magic: format version of the header line.
const MAGIC: &str = "cas1";

/// Manifest magic: format version of the checkpoint file.
const MANIFEST_MAGIC: &str = "manifest1";

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane: an arbitrary distinct nonzero offset basis so the two
/// 64-bit streams decorrelate (a collision must now happen in both).
const FNV_OFFSET_B: u64 = 0x8422_2325_cbf2_9ce4;

/// One FNV-1a lane folded over a byte stream. Allocation-free: digesting
/// and checksumming run once per row on the sweep hot path.
#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Payload checksum: one FNV-1a-64 lane. Stored in the entry header and
/// re-verified on every read, so a flipped byte in an entry is detected.
// simlint: hot-root: hashed over every entry payload on both read and write
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET_A, bytes)
}

/// A 128-bit content digest: the store key of one sweep row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Digest(pub u64, pub u64);

impl Digest {
    /// Digest of raw bytes (both lanes over the same stream).
    pub fn of(bytes: &[u8]) -> Digest {
        Digest(fnv1a(FNV_OFFSET_A, bytes), fnv1a(FNV_OFFSET_B, bytes))
    }

    /// The job digest: a pure function of the canonical config bytes, the
    /// scenario seed, and the code-version tag. Fields are length/domain
    /// separated so `("ab", 1)` and `("a", ?)` can never collide by
    /// concatenation.
    pub fn job(canonical: &[u8], seed: u64, code_tag: &str) -> Digest {
        let fold = |offset: u64| {
            let mut h = fnv1a(offset, code_tag.as_bytes());
            h = fnv1a(h, &[0x1f]);
            h = fnv1a(h, &seed.to_le_bytes());
            h = fnv1a(h, &(canonical.len() as u64).to_le_bytes());
            fnv1a(h, canonical)
        };
        Digest(fold(FNV_OFFSET_A), fold(FNV_OFFSET_B))
    }

    /// 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parse [`Digest::hex`] output; `None` on anything else.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Digest(hi, lo))
    }

    /// The shard directory name: the first two hex characters.
    pub fn shard(&self) -> String {
        self.hex()[..2].to_string()
    }
}

/// Why a store entry could not be served. Everything except [`Missing`]
/// means the entry exists but is unusable — callers report the reason and
/// recompute the row, never silently trust the bytes.
///
/// [`Missing`]: ReadError::Missing
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// No entry under this digest (the normal cache miss).
    Missing,
    /// The header line is not a valid `cas1` header.
    BadHeader(String),
    /// The entry was written by a different code version.
    StaleTag {
        /// Tag found in the entry header.
        found: String,
        /// Tag this store expects.
        expected: String,
    },
    /// The payload is shorter or longer than the header declares
    /// (a truncated or padded file).
    Truncated {
        /// Payload length the header declares.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header (bit rot or a
    /// hand-edited entry).
    BadChecksum {
        /// Checksum the header declares.
        declared: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// An I/O error other than not-found.
    Io(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Missing => write!(f, "missing"),
            ReadError::BadHeader(what) => write!(f, "bad header: {what}"),
            ReadError::StaleTag { found, expected } => {
                write!(f, "stale code tag: entry has {found:?}, store expects {expected:?}")
            }
            ReadError::Truncated { declared, actual } => {
                write!(f, "truncated: header declares {declared} payload bytes, found {actual}")
            }
            ReadError::BadChecksum { declared, actual } => {
                write!(f, "checksum mismatch: header declares {declared:016x}, payload hashes to {actual:016x}")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Distinct temp-file names for concurrent writers within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The content-addressed on-disk store.
pub struct Store {
    root: PathBuf,
    tag: String,
}

impl Store {
    /// Open (creating if needed) a store rooted at `dir`, expecting the
    /// current [`CODE_TAG`]. Sweeps away stale `*.tmp-*` files left by a
    /// killed predecessor (single-writer assumption; a rename that never
    /// happened is a row that was never completed).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        Store::open_tagged(dir, CODE_TAG)
    }

    /// [`Store::open`] with an explicit code tag (corruption tests write
    /// entries under a deliberately stale tag).
    pub fn open_tagged(dir: impl Into<PathBuf>, tag: &str) -> std::io::Result<Store> {
        assert!(
            !tag.is_empty() && !tag.contains(char::is_whitespace),
            "code tag must be non-empty and whitespace-free (it lives in a space-separated header)"
        );
        let root = dir.into();
        std::fs::create_dir_all(&root)?;
        let store = Store { root, tag: tag.to_string() };
        store.remove_stale_tmp()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code tag entries are validated against.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The on-disk path of a digest's entry.
    pub fn path_of(&self, d: &Digest) -> PathBuf {
        self.root.join(d.shard()).join(d.hex())
    }

    /// Serialize an entry: header line, then payload.
    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let header = format!("{MAGIC} {} {} {:016x}\n", self.tag, payload.len(), checksum(payload));
        let mut out = Vec::with_capacity(header.len() + payload.len());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Write (or atomically replace) the entry for `d`. The bytes land in
    /// a unique temp file in the shard directory first and are renamed
    /// into place, so a reader (or a resumed sweep after a kill) can only
    /// ever observe a complete entry under the final name. On failure the
    /// temp file is removed, so a failed write leaves nothing behind.
    pub fn write(&self, d: &Digest, payload: &[u8]) -> std::io::Result<()> {
        let final_path = self.path_of(d);
        let shard = final_path
            .parent()
            .expect("entry path always has a shard parent directory");
        std::fs::create_dir_all(shard)?;
        let tmp = shard.join(format!(
            "{}.tmp-{}-{}",
            d.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = std::fs::File::create(&tmp)?;
        let written = f
            .write_all(&self.encode(payload))
            .and_then(|()| f.sync_all())
            .and_then(|()| {
                drop(f);
                std::fs::rename(&tmp, &final_path)
            });
        if written.is_err() {
            // Best effort: the write's own error is the one worth reporting.
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Read and fully validate the entry for `d`, returning its payload.
    pub fn read(&self, d: &Digest) -> Result<Vec<u8>, ReadError> {
        let bytes = match std::fs::read(self.path_of(d)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ReadError::Missing),
            Err(e) => return Err(ReadError::Io(e.to_string())),
        };
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ReadError::BadHeader("no header line".to_string()))?;
        let header = std::str::from_utf8(&bytes[..nl])
            .map_err(|_| ReadError::BadHeader("header is not UTF-8".to_string()))?;
        let mut fields = header.split(' ');
        let (magic, tag, len, sum) = match (fields.next(), fields.next(), fields.next(), fields.next(), fields.next())
        {
            (Some(m), Some(t), Some(l), Some(s), None) => (m, t, l, s),
            _ => return Err(ReadError::BadHeader(format!("expected 4 header fields, got {header:?}"))),
        };
        if magic != MAGIC {
            return Err(ReadError::BadHeader(format!("bad magic {magic:?}")));
        }
        let declared: usize = len
            .parse()
            .map_err(|_| ReadError::BadHeader(format!("bad length field {len:?}")))?;
        let declared_sum = u64::from_str_radix(sum, 16)
            .map_err(|_| ReadError::BadHeader(format!("bad checksum field {sum:?}")))?;
        if tag != self.tag {
            return Err(ReadError::StaleTag { found: tag.to_string(), expected: self.tag.clone() });
        }
        let payload = &bytes[nl + 1..];
        if payload.len() != declared {
            return Err(ReadError::Truncated { declared, actual: payload.len() });
        }
        let actual = checksum(payload);
        if actual != declared_sum {
            return Err(ReadError::BadChecksum { declared: declared_sum, actual });
        }
        Ok(payload.to_vec())
    }

    /// Every digest with an entry file, sorted. Scans the shard
    /// directories; non-entry files (manifests, stray temp files) are
    /// ignored, so the scan is safe to run on a store that also hosts
    /// sweep checkpoints at its root.
    pub fn digests(&self) -> std::io::Result<Vec<Digest>> {
        let mut out = Vec::new();
        for shard in Self::read_dir_sorted(&self.root)? {
            let name = shard.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.len() != 2 || !name.bytes().all(|b| b.is_ascii_hexdigit()) {
                continue;
            }
            if !shard.path().is_dir() {
                continue;
            }
            for entry in Self::read_dir_sorted(&shard.path())? {
                if let Some(d) = entry.file_name().to_str().and_then(Digest::from_hex) {
                    out.push(d);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Directory entries sorted by name (OS iteration order varies).
    fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<std::fs::DirEntry>> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        Ok(entries)
    }

    /// Delete temp files a killed writer may have left in the shards.
    fn remove_stale_tmp(&self) -> std::io::Result<()> {
        for shard in Self::read_dir_sorted(&self.root)? {
            if !shard.path().is_dir() {
                continue;
            }
            for entry in Self::read_dir_sorted(&shard.path())? {
                if entry.file_name().to_str().is_some_and(|n| n.contains(".tmp-")) {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }
}

/// A sweep checkpoint: which rows of a named grid are complete. Saved
/// atomically and with its digest set sorted, so (a) a reader never
/// observes a torn manifest and (b) an interrupted-then-resumed sweep
/// converges to a manifest byte-identical to an uninterrupted run's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The sweep's name.
    pub sweep: String,
    /// Code tag the rows were computed under.
    pub tag: String,
    /// Total rows in the grid.
    pub total: usize,
    /// Digests of completed rows, sorted.
    pub done: Vec<Digest>,
}

impl Manifest {
    /// An empty checkpoint for a named grid under the current code tag.
    pub fn new(sweep: impl Into<String>, tag: impl Into<String>, total: usize) -> Manifest {
        Manifest { sweep: sweep.into(), tag: tag.into(), total, done: Vec::new() }
    }

    /// Serialize: a header line, then one digest per line, sorted.
    fn encode(&self) -> String {
        let mut done = self.done.clone();
        done.sort();
        done.dedup();
        let mut out = format!("{MANIFEST_MAGIC} {} {} {}\n", self.tag, self.total, self.sweep);
        for d in &done {
            out.push_str(&d.hex());
            out.push('\n');
        }
        out
    }

    /// Atomically save (write-temp-then-rename) at `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            "{}.tmp-{}-{}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("manifest"),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.encode().as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint; `None` when the file is absent or malformed
    /// (a manifest is advisory — the store is the source of truth, so a
    /// bad checkpoint degrades to "probe everything", never to an error).
    pub fn load(path: &Path) -> Option<Manifest> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut fields = header.splitn(4, ' ');
        if fields.next()? != MANIFEST_MAGIC {
            return None;
        }
        let tag = fields.next()?.to_string();
        let total: usize = fields.next()?.parse().ok()?;
        let sweep = fields.next()?.to_string();
        let mut done = Vec::new();
        for line in lines {
            done.push(Digest::from_hex(line)?);
        }
        Some(Manifest { sweep, tag, total, done })
    }
}

/// Checkpoint cadence: snapshot the manifest every `rows` completions or
/// every `wall` of elapsed time, whichever comes first. Row cadence bounds
/// recompute-after-kill on fast grids; wall cadence bounds it on slow ones
/// (a grid of minute-long scenarios should not wait a thousand rows
/// between snapshots).
pub struct Checkpointer {
    every_rows: usize,
    every_wall: Duration,
    rows_since: usize,
    last: Instant,
}

impl Checkpointer {
    /// The one wall-clock read in the store layer, isolated here: cadence
    /// only decides *when* a snapshot happens, never what any file ends up
    /// containing, so it cannot leak into results.
    fn wall_now() -> Instant {
        // simlint: allow(determinism): checkpoint-timer cadence only; final on-disk state is wall-clock independent
        Instant::now()
    }

    /// A cadence of every `every_rows` rows or `every_wall`, first wins.
    /// `every_rows = 0` means "rows never trigger" (wall cadence only).
    pub fn new(every_rows: usize, every_wall: Duration) -> Checkpointer {
        // simlint: allow(determinism-taint): cadence decides *when* to snapshot, never file contents
        Checkpointer { every_rows, every_wall, rows_since: 0, last: Self::wall_now() }
    }

    /// Record one completed row; true when a snapshot is due. The caller
    /// takes the snapshot, which resets both cadences.
    pub fn row_done(&mut self) -> bool {
        self.rows_since += 1;
        let due = (self.every_rows > 0 && self.rows_since >= self.every_rows)
            // simlint: allow(determinism-taint): cadence decides *when* to snapshot, never file contents
            || Self::wall_now().duration_since(self.last) >= self.every_wall;
        if due {
            self.rows_since = 0;
            // simlint: allow(determinism-taint): cadence decides *when* to snapshot, never file contents
            self.last = Self::wall_now();
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simcore_store_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn digest_hex_roundtrips() {
        let d = Digest::job(b"grid cca=bbr", 7, CODE_TAG);
        assert_eq!(d.hex().len(), 32);
        assert_eq!(Digest::from_hex(&d.hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"f".repeat(31)), None);
    }

    #[test]
    fn job_digest_separates_every_input() {
        let base = Digest::job(b"canon", 1, "tag/1");
        assert_eq!(Digest::job(b"canon", 1, "tag/1"), base, "pure function");
        assert_ne!(Digest::job(b"canoN", 1, "tag/1"), base, "canonical bytes");
        assert_ne!(Digest::job(b"canon", 2, "tag/1"), base, "seed");
        assert_ne!(Digest::job(b"canon", 1, "tag/2"), base, "code tag");
        // Length separation: moving a byte across the seed/canonical
        // boundary cannot produce the same stream.
        assert_ne!(Digest::job(b"canonx", 1, "tag/1"), Digest::job(b"canon", 1, "tag/1x"));
    }

    #[test]
    fn write_read_roundtrip_and_shard_layout() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"row one");
        store.write(&d, b"payload bytes").expect("write succeeds");
        assert_eq!(store.read(&d).expect("read back"), b"payload bytes");
        let path = store.path_of(&d);
        assert!(path.starts_with(dir.join(d.shard())), "{path:?}");
        // No temp litter after a completed write.
        let shard_files: Vec<_> = std::fs::read_dir(dir.join(d.shard()))
            .expect("shard dir exists")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(shard_files, vec![std::ffi::OsString::from(d.hex())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = tmpdir("failed_write");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"squatted");
        // A directory at the entry's final path: `rename` fails (EISDIR)
        // after the temp file was written and synced.
        std::fs::create_dir_all(store.path_of(&d)).expect("squat the entry path");
        assert!(store.write(&d, b"payload").is_err(), "rename onto a directory must fail");
        let litter: Vec<_> = std::fs::read_dir(dir.join(d.shard()))
            .expect("shard dir exists")
            .map(|e| e.expect("dir entry").file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "failed write left {litter:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_reads_as_missing() {
        let dir = tmpdir("missing");
        let store = Store::open(&dir).expect("tempdir store opens");
        assert_eq!(store.read(&Digest::of(b"nope")), Err(ReadError::Missing));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_detected() {
        let dir = tmpdir("trunc");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"t");
        store.write(&d, b"0123456789").expect("write succeeds");
        let path = store.path_of(&d);
        let bytes = std::fs::read(&path).expect("entry readable");
        std::fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate");
        assert_eq!(store.read(&d), Err(ReadError::Truncated { declared: 10, actual: 6 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_detected() {
        let dir = tmpdir("flip");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"f");
        store.write(&d, b"payload").expect("write succeeds");
        let path = store.path_of(&d);
        let mut bytes = std::fs::read(&path).expect("entry readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(store.read(&d), Err(ReadError::BadChecksum { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_header_is_detected() {
        let dir = tmpdir("header");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"h");
        store.write(&d, b"x").expect("write succeeds");
        std::fs::write(store.path_of(&d), b"not a header\npayload").expect("overwrite");
        assert!(matches!(store.read(&d), Err(ReadError::BadHeader(_))));
        std::fs::write(store.path_of(&d), b"no newline at all").expect("overwrite");
        assert!(matches!(store.read(&d), Err(ReadError::BadHeader(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_code_tag_is_detected() {
        let dir = tmpdir("stale");
        let d = Digest::of(b"s");
        {
            let old = Store::open_tagged(&dir, "starvation-sim/0").expect("tempdir store opens");
            old.write(&d, b"old result").expect("write succeeds");
        }
        let store = Store::open(&dir).expect("reopen under current tag");
        assert_eq!(
            store.read(&d),
            Err(ReadError::StaleTag {
                found: "starvation-sim/0".to_string(),
                expected: CODE_TAG.to_string(),
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digests_scan_is_sorted_and_skips_foreign_files() {
        let dir = tmpdir("scan");
        let store = Store::open(&dir).expect("tempdir store opens");
        let mut expect: Vec<Digest> = (0u64..20)
            .map(|i| {
                let d = Digest::of(format!("row {i}").as_bytes());
                store.write(&d, b"x").expect("write succeeds");
                d
            })
            .collect();
        expect.sort();
        // Foreign files the scan must ignore: a manifest at the root, a
        // stray file in a shard, a non-shard directory.
        std::fs::write(dir.join("sweep-abc.manifest"), "manifest1 t 1 s\n").expect("write manifest");
        std::fs::create_dir_all(dir.join("not-a-shard")).expect("mkdir");
        let shard0 = expect[0].shard();
        std::fs::write(dir.join(&shard0).join("README"), "hi").expect("write stray");
        assert_eq!(store.digests().expect("scan succeeds"), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = tmpdir("sweep_tmp");
        let store = Store::open(&dir).expect("tempdir store opens");
        let d = Digest::of(b"victim");
        store.write(&d, b"kept").expect("write succeeds");
        // A killed writer's torn temp file next to a real entry.
        let torn = dir.join(d.shard()).join(format!("{}.tmp-999-0", d.hex()));
        std::fs::write(&torn, b"cas1 half-writ").expect("write torn tmp");
        let store = Store::open(&dir).expect("reopen");
        assert!(!torn.exists(), "stale tmp must be swept on open");
        assert_eq!(store.read(&d).expect("entry survives"), b"kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_saves_sorted_and_roundtrips() {
        let dir = tmpdir("manifest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sweep-x.manifest");
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        let mut m = Manifest::new("grid demo", CODE_TAG, 4);
        // Insertion order differs from sorted order; saved form must not.
        m.done = if a < b { vec![b, a] } else { vec![a, b] };
        m.save(&path).expect("save succeeds");
        let loaded = Manifest::load(&path).expect("loads back");
        assert_eq!(loaded.sweep, "grid demo");
        assert_eq!(loaded.tag, CODE_TAG);
        assert_eq!(loaded.total, 4);
        let mut sorted = m.done.clone();
        sorted.sort();
        assert_eq!(loaded.done, sorted);
        // Same logical state saved from different orders: identical bytes.
        let text = std::fs::read_to_string(&path).expect("readable");
        m.done.reverse();
        m.save(&path).expect("save again");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), text);
        assert_eq!(Manifest::load(&dir.join("absent.manifest")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointer_row_cadence() {
        // Wall cadence effectively off (1 hour): rows drive it.
        let mut ck = Checkpointer::new(3, Duration::from_secs(3600));
        assert!(!ck.row_done());
        assert!(!ck.row_done());
        assert!(ck.row_done(), "third row triggers");
        assert!(!ck.row_done(), "cadence resets after a snapshot");
        // Rows off, wall at zero: every row is due (elapsed >= 0).
        let mut ck = Checkpointer::new(0, Duration::ZERO);
        assert!(ck.row_done());
        assert!(ck.row_done());
    }
}
