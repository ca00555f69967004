//! Per-document snapshots: what replay cannot re-derive about one
//! document, in a single checksummed file installed atomically.
//!
//! A snapshot holds the committed tree, the constraint suite, the commit
//! counter and the certificate's chain anchor (`prev_digest` and
//! `chain_tag`). The signed sets are not stored: they are the suite's
//! ranges evaluated on the tree, so restoring a document re-derives them
//! and re-signs them under `prev_digest`, and the stored `chain_tag` must
//! come out again — a snapshot that contradicts itself cannot be served.
//! The chain tag does not cover the document's name or commit counter, so
//! a keyed `tag` over `(doc, commits, prev_digest, chain_tag)` does; this
//! crate stores it as an opaque `u64` and the signer checks it.
//!
//! A snapshot file is `XUCSNP03` followed by one frame of the WAL's
//! `[u32 len][u64 checksum][payload]` shape ([`append_frame`] /
//! [`split_frame`]), where the payload is a [`DocSnapshot`] in the
//! [`crate::codec`] encoding. Writing goes through a `*.tmp` sibling, a
//! `sync_all`, an atomic `rename` and a sync of the directory, so a crash
//! mid-snapshot leaves either the old snapshot or the new one — never a
//! half-written file (a stray `.tmp` is ignored by [`read_snapshots`]) —
//! and once [`write_snapshot`] returns, the new one survives any crash:
//! the caller may truncate the log it covers. File names are the
//! hex-encoded document name plus `.snap`, so arbitrary document names
//! never fight the filesystem.

use crate::codec::{
    append_frame, decode_suite, decode_tree, encode_suite, encode_tree, split_frame, DecodeError,
    Decoder, Encoder,
};
use crate::fs::FileSystem;
use crate::PersistError;
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};
use xuc_core::Constraint;
use xuc_xtree::DataTree;

/// The format tag every snapshot file opens with. Older formats are
/// refused as [`DecodeError::BadMagic`]: `XUCSNP01` files also stored the
/// signed sets and the whole certificate, `XUCSNP02` files lack the tag.
const SNAP_MAGIC: &[u8; 8] = b"XUCSNP03";

/// One document as of commit `commits`: everything needed to re-open it
/// without replaying its history. Writing borrows the served document's
/// tree and suite; reading owns them.
#[derive(Debug, Clone)]
pub struct DocSnapshot<'a> {
    pub doc: Cow<'a, str>,
    pub commits: u64,
    pub tree: Cow<'a, DataTree>,
    pub suite: Cow<'a, [Constraint]>,
    /// The digest of the certificate before this state's (`0` for a
    /// document never committed to).
    pub prev_digest: u64,
    /// This state's certificate chain tag: what the suite's sets on the
    /// tree, signed under `prev_digest`, must reproduce.
    pub chain_tag: u64,
    /// The signer's keyed tag over `doc`, `commits`, `prev_digest` and
    /// `chain_tag` (opaque here).
    pub tag: u64,
}

impl DocSnapshot<'_> {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    fn encode_into(&self, e: &mut Encoder) {
        e.str(&self.doc);
        e.u64(self.commits);
        encode_tree(e, &self.tree);
        encode_suite(e, &self.suite);
        e.u64(self.prev_digest);
        e.u64(self.chain_tag);
        e.u64(self.tag);
    }

    pub fn decode(payload: &[u8]) -> Result<DocSnapshot<'static>, DecodeError> {
        let mut d = Decoder::new(payload);
        let doc = Cow::Owned(d.str()?.to_owned());
        let commits = d.u64()?;
        let tree = Cow::Owned(decode_tree(&mut d)?);
        let suite = Cow::Owned(decode_suite(&mut d)?);
        let prev_digest = d.u64()?;
        let chain_tag = d.u64()?;
        let tag = d.u64()?;
        d.finish()?;
        Ok(DocSnapshot { doc, commits, tree, suite, prev_digest, chain_tag, tag })
    }
}

/// The snapshot file for document `doc` under `dir` (hex-encoded name).
pub fn snapshot_path(dir: &Path, doc: &str) -> PathBuf {
    let mut name = String::with_capacity(doc.len() * 2 + 5);
    for b in doc.as_bytes() {
        name.push_str(&format!("{b:02x}"));
    }
    name.push_str(".snap");
    dir.join(name)
}

/// Writes `snap` atomically on `fs`: magic and one frame, encoded into
/// one buffer, into `<path>.tmp`, `sync_all`, rename over the final path,
/// sync the directory. Replaces any previous snapshot of the document.
pub fn write_snapshot(fs: &dyn FileSystem, dir: &Path, snap: &DocSnapshot) -> io::Result<()> {
    let mut bytes = SNAP_MAGIC.to_vec();
    append_frame(&mut bytes, |e| snap.encode_into(e)).map_err(io::Error::other)?;
    let path = snapshot_path(dir, &snap.doc);
    let tmp = path.with_extension("tmp");
    let mut file = fs.open(&tmp)?;
    file.set_len(0)?;
    file.write_at(0, &bytes)?;
    file.sync_all()?;
    fs.rename(&tmp, &path)?;
    // The rename is durable only once the directory is: until then a
    // crash may keep the old snapshot, and the log it covers must stay.
    fs.sync_dir(dir)?;
    crate::stats::bump(&crate::stats::SNAPSHOT_INSTALLS, 1);
    Ok(())
}

/// All `*.snap` files under `dir` on `fs`, each validated (magic,
/// framing, checksum) and decoded, sorted by document name
/// (deterministic recovery order). A missing directory holds no
/// snapshots; stray `.tmp` files (a crash mid-snapshot) are ignored.
pub fn read_snapshots(
    fs: &dyn FileSystem,
    dir: &Path,
) -> Result<Vec<DocSnapshot<'static>>, PersistError> {
    let entries = match fs.list(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(PersistError::Io(e)),
    };
    let mut snaps = Vec::new();
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            continue;
        }
        let bytes = fs.read(&path)?;
        let framed = bytes.strip_prefix(SNAP_MAGIC).ok_or(DecodeError::BadMagic)?;
        let (payload, rest) = split_frame(framed)?;
        if !rest.is_empty() {
            return Err(DecodeError::TrailingBytes.into());
        }
        snaps.push(DocSnapshot::decode(payload)?);
    }
    snaps.sort_by(|a, b| a.doc.cmp(&b.doc));
    Ok(snaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::StdFs;
    use xuc_core::parse_constraint;
    use xuc_xtree::parse_term;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xuc-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(doc: &str) -> DocSnapshot<'static> {
        DocSnapshot {
            doc: Cow::Owned(doc.into()),
            commits: 4,
            tree: Cow::Owned(parse_term("h(patient#2(visit#3,visit#4))").unwrap()),
            suite: Cow::Owned(vec![parse_constraint("(/patient/visit, ↑)").unwrap()]),
            prev_digest: 0x0123_4567_89ab_cdef,
            chain_tag: 0xfeed,
            tag: 0xbeef,
        }
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("rt");
        let snap = sample("mercy-west");
        write_snapshot(&StdFs, &dir, &snap).unwrap();
        let back = read_snapshots(&StdFs, &dir).unwrap();
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.doc, snap.doc);
        assert_eq!(b.commits, snap.commits);
        assert_eq!(b.tree.preorder_snapshot(), snap.tree.preorder_snapshot());
        assert_eq!(b.suite, snap.suite);
        assert_eq!(
            (b.prev_digest, b.chain_tag, b.tag),
            (snap.prev_digest, snap.chain_tag, snap.tag)
        );
        // Magic, frame header and payload, nothing else.
        let file = std::fs::metadata(snapshot_path(&dir, "mercy-west")).unwrap().len();
        assert_eq!(file as usize, 8 + 12 + snap.encode().len());
    }

    #[test]
    fn rewrite_replaces_and_tmp_ignored() {
        let dir = tmp_dir("replace");
        let mut snap = sample("doc");
        write_snapshot(&StdFs, &dir, &snap).unwrap();
        snap.commits = 9;
        write_snapshot(&StdFs, &dir, &snap).unwrap();
        // A crash can abandon a .tmp file; it must not confuse recovery.
        std::fs::write(dir.join("deadbeef.tmp"), b"half-written").unwrap();
        let back = read_snapshots(&StdFs, &dir).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].commits, 9);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let dir = tmp_dir("corrupt");
        let snap = sample("doc");
        write_snapshot(&StdFs, &dir, &snap).unwrap();
        let path = snapshot_path(&dir, "doc");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshots(&StdFs, &dir),
            Err(PersistError::Decode(DecodeError::Checksum)) | Err(PersistError::Decode(_))
        ));
    }

    #[test]
    fn missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("xuc-snap-definitely-missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(read_snapshots(&StdFs, &dir).unwrap().is_empty());
    }

    #[test]
    fn names_are_hex_encoded() {
        let p = snapshot_path(Path::new("/d"), "a/b");
        assert_eq!(p, PathBuf::from("/d/612f62.snap"));
    }
}
