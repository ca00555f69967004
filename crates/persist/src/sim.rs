//! A simulated disk: the [`FileSystem`] the crash, chaos and kill/restart
//! suites run on.
//!
//! # Crash model
//!
//! The disk keeps what a running process sees apart from what a crash
//! keeps, conservatively:
//!
//! * a file's writes and `set_len`s are durable once its `sync_all`
//!   returns; before that, a crash keeps a prefix of them in issue order,
//!   the last kept one possibly torn (half its bytes);
//! * a create, mkdir or rename is durable once its directory's
//!   `sync_dir` returns; before that, a crash keeps a prefix of the
//!   directory's pending name operations;
//! * an entry whose directory did not survive is gone; the root always
//!   survives.
//!
//! Every state-changing call is recorded in a trace.
//! [`SimDisk::crash_states`] replays the trace and enumerates every state
//! the model allows after each operation, deduplicated, in a
//! deterministic order; [`SimDisk::crash`] takes one of three named
//! crash images. [`SimDisk::fail_syncs`] makes syncs fail — the next `n`
//! transiently, or all of them until [`SimDisk::heal`] — and a failed
//! sync changes nothing.

use crate::fs::{FileHandle, FileSystem};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A sync fault the disk raises until it is spent or healed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFault {
    /// The next `n` syncs fail with `Interrupted`; the one after succeeds.
    Interrupted(u32),
    /// Every sync fails with `StorageFull` until [`SimDisk::heal`].
    StorageFull,
}

/// A named crash image ([`SimDisk::crash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// Power fails now: everything not synced is lost.
    LoseUnsynced,
    /// Power fails during the sync after the last write: that write and
    /// everything else unsynced is lost.
    DropLastWrite,
    /// As [`DropLastWrite`](Crash::DropLastWrite), but half of the last
    /// write lands.
    TearLastWrite,
}

/// One state [`SimDisk::crash_states`] enumerates.
pub struct CrashState {
    /// How many trace operations were issued before the crash. When one
    /// image arises at several points, the latest is kept.
    pub after_ops: usize,
    /// Which operation came last and what of the unsynced work the crash
    /// kept.
    pub label: String,
    /// The disk a restart finds.
    pub disk: SimDisk,
}

/// The simulated disk. Clones share one disk.
#[derive(Clone, Default)]
pub struct SimDisk {
    sim: Arc<Mutex<Sim>>,
}

#[derive(Default)]
struct Sim {
    /// The state the trace starts from.
    origin: State,
    state: State,
    trace: Vec<Op>,
    fault: Option<SyncFault>,
    crashed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    File(usize),
    Dir,
}

#[derive(Debug, Clone)]
enum DataOp {
    Write { offset: u64, bytes: Vec<u8> },
    SetLen(u64),
}

impl DataOp {
    fn apply(&self, data: &mut Vec<u8>, torn: bool) {
        match self {
            DataOp::Write { offset, bytes } => {
                let bytes = if torn { &bytes[..bytes.len() / 2] } else { &bytes[..] };
                let start = *offset as usize;
                if data.len() < start + bytes.len() {
                    data.resize(start + bytes.len(), 0);
                }
                data[start..start + bytes.len()].copy_from_slice(bytes);
            }
            DataOp::SetLen(len) => data.resize(*len as usize, 0),
        }
    }
}

#[derive(Debug, Clone)]
enum NameOp {
    Link(PathBuf, Entry),
    Rename(PathBuf, PathBuf),
}

impl NameOp {
    fn apply(&self, names: &mut BTreeMap<PathBuf, Entry>) {
        match self {
            NameOp::Link(path, entry) => {
                names.insert(path.clone(), *entry);
            }
            NameOp::Rename(from, to) => {
                if let Some(entry) = names.remove(from) {
                    names.insert(to.clone(), entry);
                }
            }
        }
    }
}

/// One state-changing call, as the trace records it.
#[derive(Debug, Clone)]
enum Op {
    Create(PathBuf),
    Mkdir(PathBuf),
    Rename(PathBuf, PathBuf),
    Data(usize, DataOp),
    Sync(usize),
    SyncDir(PathBuf),
}

#[derive(Debug, Clone, Default)]
struct SimFile {
    data: Vec<u8>,
    synced: Vec<u8>,
    unsynced: Vec<DataOp>,
}

/// What a crash keeps of the unsynced work: per file, how many pending
/// data operations and whether the last kept one is torn; per directory,
/// how many pending name operations.
#[derive(Debug, Clone, Default)]
struct Cut {
    files: BTreeMap<usize, (usize, bool)>,
    dirs: BTreeMap<PathBuf, usize>,
}

/// A crash image's observable content: every path, with a file's bytes.
type Content = Vec<(PathBuf, Option<Vec<u8>>)>;

/// What a running process sees (`files[..].data`, `names`) and what a
/// crash keeps (`files[..].synced`, `durable`), with the pending work
/// between them.
#[derive(Debug, Clone, Default)]
struct State {
    files: Vec<SimFile>,
    names: BTreeMap<PathBuf, Entry>,
    durable: BTreeMap<PathBuf, Entry>,
    /// Name operations not yet durable, by directory, in issue order.
    unsynced: BTreeMap<PathBuf, Vec<NameOp>>,
}

fn is_root(dir: &Path) -> bool {
    dir.as_os_str().is_empty() || dir == Path::new(".") || dir == Path::new("/")
}

/// The key a directory's pending name operations sit under.
fn dir_key(dir: &Path) -> PathBuf {
    if is_root(dir) {
        PathBuf::new()
    } else {
        dir.to_owned()
    }
}

fn dir_of(path: &Path) -> PathBuf {
    dir_key(path.parent().unwrap_or(Path::new("")))
}

impl State {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Create(path) => {
                self.files.push(SimFile::default());
                self.link(NameOp::Link(path.clone(), Entry::File(self.files.len() - 1)), path);
            }
            Op::Mkdir(path) => self.link(NameOp::Link(path.clone(), Entry::Dir), path),
            Op::Rename(from, to) => self.link(NameOp::Rename(from.clone(), to.clone()), to),
            Op::Data(f, op) => {
                let file = &mut self.files[*f];
                op.apply(&mut file.data, false);
                file.unsynced.push(op.clone());
            }
            Op::Sync(f) => {
                let file = &mut self.files[*f];
                file.synced = file.data.clone();
                file.unsynced.clear();
            }
            Op::SyncDir(dir) => {
                for op in self.unsynced.remove(dir).unwrap_or_default() {
                    op.apply(&mut self.durable);
                }
            }
        }
    }

    fn link(&mut self, op: NameOp, path: &Path) {
        op.apply(&mut self.names);
        self.unsynced.entry(dir_of(path)).or_default().push(op);
    }

    fn is_dir(&self, dir: &Path) -> bool {
        is_root(dir) || self.names.get(dir) == Some(&Entry::Dir)
    }

    fn file(&self, path: &Path) -> io::Result<usize> {
        match self.names.get(path) {
            Some(Entry::File(f)) => Ok(*f),
            Some(Entry::Dir) => Err(io::Error::other(format!("{} is a directory", path.display()))),
            None => Err(io::Error::new(io::ErrorKind::NotFound, path.display().to_string())),
        }
    }

    fn name_of(&self, f: usize) -> String {
        self.names
            .iter()
            .find(|(_, e)| **e == Entry::File(f))
            .map_or(format!("file #{f}"), |(p, _)| p.display().to_string())
    }

    fn describe(&self, op: &Op) -> String {
        match op {
            Op::Create(p) => format!("create {}", p.display()),
            Op::Mkdir(p) => format!("mkdir {}", p.display()),
            Op::Rename(a, b) => format!("rename {} -> {}", a.display(), b.display()),
            Op::Data(f, DataOp::Write { offset, bytes }) => {
                format!("write {} B at {offset} to {}", bytes.len(), self.name_of(*f))
            }
            Op::Data(f, DataOp::SetLen(len)) => format!("set_len {len} on {}", self.name_of(*f)),
            Op::Sync(f) => format!("sync {}", self.name_of(*f)),
            Op::SyncDir(d) => format!("sync dir {:?}", d.display().to_string()),
        }
    }

    /// Every cut the model allows here, with a description of each.
    fn cuts(&self) -> Vec<(Cut, String)> {
        let mut cuts = vec![(Cut::default(), String::new())];
        for (f, file) in self.files.iter().enumerate() {
            let n = file.unsynced.len();
            if n == 0 {
                continue;
            }
            let mut keeps: Vec<(usize, bool)> = (0..=n).map(|k| (k, false)).collect();
            keeps.extend(
                (1..=n)
                    .filter(|&k| matches!(file.unsynced[k - 1], DataOp::Write { .. }))
                    .map(|k| (k, true)),
            );
            let (name, keeps) = (&self.name_of(f), &keeps);
            cuts = cuts
                .into_iter()
                .flat_map(|(cut, desc)| {
                    keeps.iter().map(move |&(k, torn)| {
                        let mut cut = cut.clone();
                        cut.files.insert(f, (k, torn));
                        let torn = if torn { ", the last torn" } else { "" };
                        (cut, format!("{desc}; {name}: {k} of {n} unsynced ops kept{torn}"))
                    })
                })
                .collect();
        }
        for (dir, ops) in &self.unsynced {
            let m = ops.len();
            cuts = cuts
                .into_iter()
                .flat_map(|(cut, desc)| {
                    (0..=m).map(move |k| {
                        let mut cut = cut.clone();
                        cut.dirs.insert(dir.clone(), k);
                        let shown = dir.display().to_string();
                        (cut, format!("{desc}; dir {shown:?}: {k} of {m} name ops kept"))
                    })
                })
                .collect();
        }
        cuts
    }

    /// The state a restart finds after a crash that keeps `cut`.
    fn image(&self, cut: &Cut) -> State {
        let mut names = self.durable.clone();
        for (dir, ops) in &self.unsynced {
            for op in &ops[..cut.dirs.get(dir).copied().unwrap_or(0)] {
                op.apply(&mut names);
            }
        }
        let survives = |path: &Path| {
            path.ancestors().skip(1).all(|d| is_root(d) || names.get(d) == Some(&Entry::Dir))
        };
        let mut image = State::default();
        for (path, entry) in &names {
            if !survives(path) {
                continue;
            }
            let entry = match *entry {
                Entry::Dir => Entry::Dir,
                Entry::File(f) => {
                    let file = &self.files[f];
                    let (kept, torn) = cut.files.get(&f).copied().unwrap_or((0, false));
                    let mut data = file.synced.clone();
                    for (i, op) in file.unsynced[..kept].iter().enumerate() {
                        op.apply(&mut data, torn && i + 1 == kept);
                    }
                    image.files.push(SimFile { synced: data.clone(), data, unsynced: Vec::new() });
                    Entry::File(image.files.len() - 1)
                }
            };
            image.names.insert(path.clone(), entry);
        }
        image.durable = image.names.clone();
        image
    }

    /// The image's observable content, for deduplication.
    fn content(&self) -> Content {
        let bytes = |e: &Entry| match e {
            Entry::File(f) => Some(self.files[*f].data.clone()),
            Entry::Dir => None,
        };
        self.names.iter().map(|(p, e)| (p.clone(), bytes(e))).collect()
    }
}

fn crashed() -> io::Error {
    io::Error::other("the simulated disk has crashed")
}

impl Sim {
    fn live(&mut self) -> io::Result<&mut Sim> {
        if self.crashed {
            return Err(crashed());
        }
        Ok(self)
    }

    fn record(&mut self, op: Op) {
        self.state.apply(&op);
        self.trace.push(op);
    }

    /// Raises the armed sync fault, if any.
    fn sync_fault(&mut self) -> io::Result<()> {
        match self.fault {
            Some(SyncFault::Interrupted(n)) => {
                self.fault = (n > 1).then_some(SyncFault::Interrupted(n - 1));
                if n > 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "simulated transient sync fault",
                    ));
                }
                Ok(())
            }
            Some(SyncFault::StorageFull) => {
                Err(io::Error::new(io::ErrorKind::StorageFull, "simulated disk-full fault"))
            }
            None => Ok(()),
        }
    }
}

impl SimDisk {
    /// An empty disk: only the root directory exists.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    fn from_state(state: State) -> SimDisk {
        let sim = Sim { origin: state.clone(), state, ..Sim::default() };
        SimDisk { sim: Arc::new(Mutex::new(sim)) }
    }

    fn lock(&self) -> MutexGuard<'_, Sim> {
        self.sim.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `fault`, replacing any armed one.
    pub fn fail_syncs(&self, fault: SyncFault) {
        self.lock().fault = Some(fault);
    }

    /// Disarms any sync fault.
    pub fn heal(&self) {
        self.lock().fault = None;
    }

    /// State-changing operations issued so far.
    pub fn ops(&self) -> usize {
        self.lock().trace.len()
    }

    /// Completed syncs of `path`: `sync_all`s of the file it names, or
    /// `sync_dir`s of the directory.
    pub fn syncs(&self, path: &Path) -> usize {
        let sim = self.lock();
        let file = sim.state.names.get(path).copied();
        let dir = dir_key(path);
        let synced = |op: &&Op| match op {
            Op::Sync(f) => file == Some(Entry::File(*f)),
            Op::SyncDir(d) => *d == dir,
            _ => false,
        };
        sim.trace.iter().filter(synced).count()
    }

    /// Crashes the disk — every later operation on it fails — and returns
    /// a fresh disk holding the `crash` image.
    pub fn crash(&self, crash: Crash) -> SimDisk {
        let mut sim = self.lock();
        sim.crashed = true;
        let last_write =
            sim.trace.iter().rposition(|op| matches!(op, Op::Data(_, DataOp::Write { .. })));
        let image = match (crash, last_write) {
            (Crash::LoseUnsynced, _) | (_, None) => sim.state.image(&Cut::default()),
            (_, Some(at)) => {
                let mut state = sim.origin.clone();
                let mut written = 0;
                for op in &sim.trace[..=at] {
                    state.apply(op);
                    if let Op::Data(f, _) = op {
                        written = *f;
                    }
                }
                // The last write is the newest of its file's unsynced ops.
                let n = state.files[written].unsynced.len();
                let keep = if crash == Crash::DropLastWrite { (n - 1, false) } else { (n, true) };
                let mut cut = Cut::default();
                cut.files.insert(written, keep);
                state.image(&cut)
            }
        };
        SimDisk::from_state(image)
    }

    /// Every state a crash can leave, after each traced operation (the
    /// untouched start included), deduplicated by content. The order and
    /// the count are deterministic for a deterministic trace.
    pub fn crash_states(&self) -> Vec<CrashState> {
        let sim = self.lock();
        let mut state = sim.origin.clone();
        let mut seen: BTreeMap<Content, usize> = BTreeMap::new();
        let mut out: Vec<CrashState> = Vec::new();
        for k in 0..=sim.trace.len() {
            let last = match k {
                0 => "the start".to_owned(),
                _ => {
                    state.apply(&sim.trace[k - 1]);
                    format!("op {k} ({})", state.describe(&sim.trace[k - 1]))
                }
            };
            for (cut, desc) in state.cuts() {
                let image = state.image(&cut);
                let label = format!("after {last}{desc}");
                match seen.get(&image.content()) {
                    Some(&i) => {
                        out[i].after_ops = k;
                        out[i].label = label;
                    }
                    None => {
                        seen.insert(image.content(), out.len());
                        out.push(CrashState {
                            after_ops: k,
                            label,
                            disk: SimDisk::from_state(image),
                        });
                    }
                }
            }
        }
        out
    }
}

impl FileSystem for SimDisk {
    fn open(&self, path: &Path) -> io::Result<Box<dyn FileHandle>> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        let file = match sim.state.file(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if !sim.state.is_dir(&dir_of(path)) {
                    return Err(e);
                }
                sim.record(Op::Create(path.to_owned()));
                sim.state.files.len() - 1
            }
            Err(e) => return Err(e),
        };
        Ok(Box::new(SimHandle { disk: self.clone(), file }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        let f = sim.state.file(path)?;
        Ok(sim.state.files[f].data.clone())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        if !sim.state.is_dir(dir) {
            return Err(io::Error::new(io::ErrorKind::NotFound, dir.display().to_string()));
        }
        let dir = dir_key(dir);
        Ok(sim.state.names.keys().filter(|p| dir_of(p) == dir).cloned().collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        sim.state.file(from)?;
        if !sim.state.is_dir(&dir_of(to)) || sim.state.names.get(to) == Some(&Entry::Dir) {
            return Err(io::Error::other(format!("cannot rename onto {}", to.display())));
        }
        sim.record(Op::Rename(from.to_owned(), to.to_owned()));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        if !sim.state.is_dir(dir) {
            return Err(io::Error::new(io::ErrorKind::NotFound, dir.display().to_string()));
        }
        sim.sync_fault()?;
        sim.record(Op::SyncDir(dir_key(dir)));
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut sim = self.lock();
        let sim = sim.live()?;
        let missing: BTreeSet<&Path> = dir.ancestors().filter(|d| !sim.state.is_dir(d)).collect();
        for d in missing {
            if sim.state.names.contains_key(d) {
                return Err(io::Error::other(format!("{} is a file", d.display())));
            }
            // Shorter paths sort first: parents are made before children.
            sim.record(Op::Mkdir(d.to_owned()));
        }
        Ok(())
    }
}

/// An open file of a [`SimDisk`].
struct SimHandle {
    disk: SimDisk,
    file: usize,
}

impl FileHandle for SimHandle {
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let op = DataOp::Write { offset, bytes: bytes.to_vec() };
        self.disk.lock().live()?.record(Op::Data(self.file, op));
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.disk.lock().live()?.record(Op::Data(self.file, DataOp::SetLen(len)));
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut sim = self.disk.lock();
        let sim = sim.live()?;
        sim.sync_fault()?;
        sim.record(Op::Sync(self.file));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(disk: &SimDisk, path: &str, bytes: &[u8], sync: bool) {
        let mut f = disk.open(Path::new(path)).unwrap();
        f.write_at(0, bytes).unwrap();
        if sync {
            f.sync_all().unwrap();
        }
    }

    fn read(disk: &SimDisk, path: &str) -> Option<Vec<u8>> {
        disk.read(Path::new(path)).ok()
    }

    /// A synced file whose create was never made durable by a directory
    /// sync is lost; once the directory is synced it survives.
    #[test]
    fn a_create_is_durable_only_after_its_directory_sync() {
        let disk = SimDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        disk.sync_dir(Path::new("")).unwrap();
        write(&disk, "d/a", b"alpha", true);
        assert_eq!(read(&disk.crash(Crash::LoseUnsynced), "d/a"), None);
        let disk = SimDisk::new();
        disk.create_dir_all(Path::new("d")).unwrap();
        disk.sync_dir(Path::new(".")).unwrap();
        write(&disk, "d/a", b"alpha", true);
        disk.sync_dir(Path::new("d")).unwrap();
        assert_eq!(read(&disk.crash(Crash::LoseUnsynced), "d/a").as_deref(), Some(&b"alpha"[..]));
    }

    /// A rename persists only with its directory: before the sync a crash
    /// can keep the old name or the new one, never both, never neither.
    #[test]
    fn a_rename_is_atomic_and_durable_after_the_directory_sync() {
        let disk = SimDisk::new();
        write(&disk, "snap", b"old", true);
        write(&disk, "tmp", b"new", true);
        disk.sync_dir(Path::new("")).unwrap();
        disk.rename(Path::new("tmp"), Path::new("snap")).unwrap();
        let contents: BTreeSet<[Option<Vec<u8>>; 2]> = disk
            .crash_states()
            .iter()
            .filter(|s| s.after_ops == disk.ops())
            .map(|s| [read(&s.disk, "snap"), read(&s.disk, "tmp")])
            .collect();
        let expected = BTreeSet::from([
            [Some(b"old".to_vec()), Some(b"new".to_vec())],
            [Some(b"new".to_vec()), None],
        ]);
        assert_eq!(contents, expected);
        disk.sync_dir(Path::new("")).unwrap();
        let after = disk.crash(Crash::LoseUnsynced);
        assert_eq!((read(&after, "snap"), read(&after, "tmp")), (Some(b"new".to_vec()), None));
    }

    /// Unsynced writes are lost, dropped or torn; synced ones stay.
    #[test]
    fn unsynced_writes_are_lost_dropped_or_torn() {
        let open = || {
            let disk = SimDisk::new();
            let mut f = disk.open(Path::new("log")).unwrap();
            f.write_at(0, b"head").unwrap();
            f.sync_all().unwrap();
            disk.sync_dir(Path::new("")).unwrap();
            f.write_at(4, b"tail").unwrap();
            disk
        };
        let log = |disk: SimDisk| read(&disk, "log").unwrap();
        assert_eq!(log(open().crash(Crash::LoseUnsynced)), b"head");
        assert_eq!(log(open().crash(Crash::DropLastWrite)), b"head");
        assert_eq!(log(open().crash(Crash::TearLastWrite)), b"headta");
        let states = open().crash_states();
        let logs: BTreeSet<Vec<u8>> = states.iter().filter_map(|s| read(&s.disk, "log")).collect();
        assert!(logs.contains(b"headta".as_slice()) && logs.contains(b"headtail".as_slice()));
    }

    /// The next `n` syncs fail transiently; a full disk fails every sync
    /// until healed; a crashed disk refuses everything.
    #[test]
    fn sync_faults_and_crashes_fail_operations() {
        let disk = SimDisk::new();
        let mut f = disk.open(Path::new("log")).unwrap();
        f.write_at(0, b"x").unwrap();
        disk.fail_syncs(SyncFault::Interrupted(2));
        for _ in 0..2 {
            assert_eq!(f.sync_all().unwrap_err().kind(), io::ErrorKind::Interrupted);
        }
        f.sync_all().unwrap();
        disk.fail_syncs(SyncFault::StorageFull);
        for _ in 0..3 {
            let e = disk.sync_dir(Path::new("")).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        }
        disk.heal();
        disk.sync_dir(Path::new("")).unwrap();
        assert_eq!(disk.syncs(Path::new("log")), 1);
        assert_eq!(disk.syncs(Path::new("")), 1);
        let after = disk.crash(Crash::LoseUnsynced);
        assert!(f.write_at(0, b"y").is_err() && disk.read(Path::new("log")).is_err());
        assert_eq!(read(&after, "log").as_deref(), Some(&b"x"[..]));
    }
}
