//! What the benchmark needs from the operating system: a quiet CPU to
//! run on, process counters from `/proc`, a data directory inside the
//! checkout, and a storage backend that counts device calls.

use quarry_storage::{BackendFile, RealBackend, StorageBackend};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// glibc's `cpu_set_t`: 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod affinity {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    }

    /// Restrict the calling thread, and every thread it starts later, to
    /// `cpu`.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0u64; MASK_WORDS];
        let Some(word) = mask.get_mut(cpu / 64) else { return false };
        *word = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed
        // and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) -> bool {
        false
    }
}

/// Pin the process to one CPU and return its index.
///
/// On this class of VM a wake-up that crosses vCPUs costs several times
/// the 30 us request it delivers and swings 5x from minute to minute; with
/// client and server on one CPU the same request is a local context
/// switch. Every thread started afterwards inherits the mask. The price:
/// no number from this benchmark can show a parallel speed-up.
pub fn pin_to_one_cpu() -> Option<usize> {
    // The highest allowed CPU: CPU 0 takes most device interrupts.
    affinity::allowed().last().copied().filter(|&cpu| affinity::pin(cpu))
}

/// What one calibration unit takes on this class of box when nothing
/// shares the core. Timed metrics are reported as if the box always ran
/// at this speed.
const NOMINAL_CALIBRATION_US: f64 = 200.0;
/// How long one sample of the box's speed is trusted.
const RECALIBRATE_AFTER: Duration = Duration::from_millis(50);

/// One unit of fixed user-mode work of the kind the program does all day:
/// format rows, then copy them and free the copies, allocation by
/// allocation. (Arithmetic alone barely notices a busy sibling thread;
/// allocation-heavy code slows about as much as the program does.)
fn calibration_unit() -> usize {
    let rows: Vec<String> =
        (0..500).map(|i| format!("reading {i:06}: nominal, no maintenance flag set")).collect();
    (0..6).map(|_| std::hint::black_box(rows.clone()).len()).sum()
}

/// Seconds of work, as timed and as they would have been at nominal speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Took {
    pub wall: f64,
    pub nominal: f64,
}

impl Took {
    pub fn since(self, earlier: Took) -> Took {
        Took { wall: self.wall - earlier.wall, nominal: self.nominal - earlier.nominal }
    }
}

/// Times work and says what it would have taken on a quiet box.
///
/// Another tenant on the core's other hardware thread slows
/// instruction-dense code by 1.4x, for half a second or for minutes, and
/// nothing in the guest says when: a point read takes 29 us or 43 us,
/// a calibration unit 200 us or 290 us, in step. So the speed of the box
/// is sampled with one calibration unit at most every 50 ms of timed
/// work, and every timed duration is scaled by nominal / sampled.
pub struct Speedometer {
    /// Nominal over sampled calibration time: under 1 on a slowed box.
    factor: f64,
    sampled: Instant,
    total: Took,
}

impl Speedometer {
    pub fn start() -> Speedometer {
        let mut speed =
            Speedometer { factor: 1.0, sampled: Instant::now(), total: Took::default() };
        speed.sample();
        speed
    }

    fn sample(&mut self) {
        // The faster of two: a timer tick inside one is not the box's speed.
        let unit_us = (0..2)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(calibration_unit());
                start.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        self.factor = NOMINAL_CALIBRATION_US / unit_us;
        self.sampled = Instant::now();
    }

    fn factor(&mut self) -> f64 {
        if self.sampled.elapsed() > RECALIBRATE_AFTER {
            self.sample();
        }
        self.factor
    }

    /// Run `f`, add what it took to the total, and return its output with
    /// the factor that turns its wall time into nominal time: the mean of
    /// the box's speed before it and, if it outlasted the sample, after.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.factor();
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let factor = (before + self.factor()) / 2.0;
        self.total.wall += wall;
        self.total.nominal += wall * factor;
        (out, factor)
    }

    /// Everything timed so far.
    pub fn total(&self) -> Took {
        self.total
    }
}

/// User + system CPU time of the whole process so far, in microseconds
/// (`/proc/self/stat` counts in 10 ms ticks). 0 where `/proc` is absent.
pub fn process_cpu_us() -> u64 {
    const US_PER_TICK: u64 = 10_000;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick() + tick()) * US_PER_TICK
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() { dir_bytes(&entry.path())? } else { meta.len() };
    }
    Ok(total)
}

/// A scratch directory beside the executable (so inside the build
/// directory, inside the checkout), removed on drop.
pub struct DataDir {
    root: PathBuf,
    next: u32,
}

impl DataDir {
    pub fn create() -> io::Result<DataDir> {
        let exe = std::env::current_exe()?;
        let parent = exe.parent().ok_or_else(|| io::Error::other("executable has no directory"))?;
        let root = parent.join(format!("quarry_bench-data-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(DataDir { root, next: 0 })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&mut self, label: &str) -> io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("{label}-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Device calls seen by a [`CountingBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub write_calls: u64,
    pub write_bytes: u64,
    pub syncs: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
}

impl DeviceCounts {
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            write_calls: self.write_calls - earlier.write_calls,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
}

impl Counters {
    // Relaxed: plain statistics, read after the work they count is joined.
    fn wrote(&self, bytes: usize) {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn read(&self, bytes: usize) {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The real filesystem with every read, write and sync counted. A sync is
/// counted and not issued: the engine runs at its shipped durability and
/// asks for every flush, but a flush on this box's disk takes 2.4 ms give
/// or take a neighbour, and the benchmark measures the engine, not the
/// device. (`/dev/shm` would do the same and is outside the checkout.)
#[derive(Debug, Clone, Default)]
pub struct CountingBackend {
    counters: Arc<Counters>,
}

impl CountingBackend {
    pub fn counts(&self) -> DeviceCounts {
        let c = &self.counters;
        DeviceCounts {
            write_calls: c.write_calls.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            read_calls: c.read_calls.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
        }
    }

    fn wrap(&self, file: Box<dyn BackendFile>) -> Box<dyn BackendFile> {
        Box::new(CountingFile { inner: file, counters: Arc::clone(&self.counters) })
    }
}

struct CountingFile {
    inner: Box<dyn BackendFile>,
    counters: Arc<Counters>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counters.wrote(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl BackendFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_at(offset, buf)?;
        self.counters.wrote(buf.len());
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)?;
        self.counters.read(buf.len());
        Ok(())
    }

    fn file_len(&mut self) -> io::Result<u64> {
        self.inner.file_len()
    }
}

impl StorageBackend for CountingBackend {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(RealBackend.open_append(path, truncate_to)?))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(RealBackend.create_new(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        Ok(self.wrap(RealBackend.open_rw(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = RealBackend.read(path)?;
        self.counters.read(data.len());
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // RealBackend::rename also syncs the directory: one more flush.
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_work_is_scaled_by_the_sampled_speed() {
        // A box sampled a moment ago at half of nominal speed.
        let mut speed =
            Speedometer { factor: 0.5, sampled: Instant::now(), total: Took::default() };
        let mark = speed.total();
        let ((), factor) = speed.timed(|| std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(factor, 0.5, "shorter than the sample's life: no new sample");
        let took = speed.total().since(mark);
        assert!(took.wall >= 0.002);
        assert!((took.nominal - took.wall * 0.5).abs() < 1e-12);
        // Work that outlasts the sample is priced at the mean of before and after.
        let (_, factor) =
            speed.timed(|| std::thread::sleep(RECALIBRATE_AFTER + Duration::from_millis(5)));
        assert!((factor - (0.5 + speed.factor) / 2.0).abs() < 1e-12);
        assert!(speed.factor > 0.0 && speed.factor.is_finite());
    }

    #[test]
    fn device_counts_start_at_zero_and_subtract() {
        let counts = CountingBackend::default();
        assert_eq!(counts.counts(), DeviceCounts::default());
        let earlier = DeviceCounts {
            write_calls: 1,
            write_bytes: 10,
            syncs: 1,
            read_calls: 2,
            read_bytes: 20,
        };
        let later = DeviceCounts {
            write_calls: 3,
            write_bytes: 50,
            syncs: 2,
            read_calls: 2,
            read_bytes: 20,
        };
        assert_eq!(
            later.since(&earlier),
            DeviceCounts {
                write_calls: 2,
                write_bytes: 40,
                syncs: 1,
                read_calls: 0,
                read_bytes: 0
            }
        );
    }
}
