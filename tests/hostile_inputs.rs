//! Hostile input files: every graph reader and the snapshot reader return
//! a typed `InvalidData` error, never a panic or an abort, and stay within
//! a stated allocation bound; a real `parscan serve` answers a `LOAD` of
//! each file with a non-retryable error and keeps serving.
//!
//! The four graph files and what each did before the readers checked
//! declared sizes against the bytes present:
//!
//! - a 25-byte `.bin` whose header claims n = 2⁴⁰ — the reader reserved
//!   `(n + 1) × 8` bytes of offsets from the header, and the failed
//!   allocation aborted the process;
//! - a `.bin` with an odd slot count — the reader built through a
//!   panicking constructor;
//! - a METIS file with header `2 1000000000000` — the reader reserved
//!   `2m` entries from the header and aborted the same way;
//! - an edge list `0 4294967295` — the builder panicked because
//!   `n = max id + 1` overflows `u32`.
//!
//! The two snapshot cases (a version-1 file and a version-2 file without
//! its BREAKPOINTS section) used to load; both are now rejected.
//!
//! Allocation is measured with a counting global allocator. It counts
//! every thread of this test binary, so the tests here serialize on one
//! lock.

use parscan::core::persist::checksum64;
use parscan::core::{IndexConfig, ScanIndex};
use parscan::graph::generators;
use parscan::graph::io::{read_graph, write_binary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as if old and new blocks coexist, as they do when
            // the block moves.
            grew(new_size);
            CURRENT.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated at the high-water mark of `f`, above what was live
/// when it started.
fn peak_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = CURRENT.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(base))
}

/// The stated bound: 64 KiB of fixed overhead plus four times the file.
fn allocation_bound(file_len: usize) -> usize {
    64 * 1024 + 4 * file_len
}

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parscan-hostile-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bin_header(n: u64, slots: u64) -> Vec<u8> {
    let mut b = b"PSCG".to_vec();
    b.extend_from_slice(&1u32.to_le_bytes());
    b.push(0); // unweighted
    b.extend_from_slice(&n.to_le_bytes());
    b.extend_from_slice(&slots.to_le_bytes());
    b
}

/// The four hostile graph files, written into `dir`.
fn hostile_files(dir: &Path) -> Vec<PathBuf> {
    // Header only, claiming n = 2^40.
    let huge_n = bin_header(1 << 40, 0);
    assert_eq!(huge_n.len(), 25);
    // n = 1 with one slot: exactly as long as its header says, but the
    // single slot can have no twin.
    let mut odd = bin_header(1, 1);
    for o in [0u64, 1] {
        odd.extend_from_slice(&o.to_le_bytes());
    }
    odd.extend_from_slice(&0u32.to_le_bytes());
    let files: [(&str, &[u8]); 4] = [
        ("huge-n.bin", &huge_n),
        ("odd-slots.bin", &odd),
        ("huge-m.graph", b"2 1000000000000\n"),
        ("max-id.txt", b"0 4294967295\n"),
    ];
    files
        .iter()
        .map(|(name, bytes)| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect()
}

#[test]
fn graph_readers_reject_hostile_files_with_invalid_data() {
    let _serial = serial();
    let dir = temp_dir("library");
    for path in hostile_files(&dir) {
        let err = read_graph(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{path:?}: {err}");
        println!("{}: {err}", path.file_name().unwrap().to_string_lossy());
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn readers_stay_under_the_allocation_bound() {
    let _serial = serial();
    let dir = temp_dir("alloc");
    // A valid graph too, so the bound is shown on a file that is decoded
    // and built, not only on ones rejected early.
    let valid = dir.join("valid.bin");
    write_binary(&generators::rmat(13, 8, 5), &valid).unwrap();
    let mut files = hostile_files(&dir);
    files.push(valid.clone());
    for path in files {
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        // `read_graph` dispatches by extension: `.bin` to `read_binary`,
        // `.graph` to `read_metis`, anything else to the edge-list reader.
        let (result, peak) = peak_allocation(|| read_graph(path.to_str().unwrap()).map(drop));
        assert_eq!(result.is_ok(), path == valid, "{path:?}: {result:?}");
        println!(
            "{}: {len} bytes, peak allocation {peak} bytes (bound {})",
            path.file_name().unwrap().to_string_lossy(),
            allocation_bound(len)
        );
        assert!(
            peak <= allocation_bound(len),
            "{path:?}: peak allocation {peak} exceeds {}",
            allocation_bound(len)
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Recompute the trailing checksum after editing a snapshot's payload.
fn reseal(bytes: &mut [u8]) {
    let len = bytes.len();
    let sum = checksum64(&bytes[..len - 8]);
    bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn snapshot_reader_rejects_v1_and_missing_breakpoints() {
    let _serial = serial();
    // A complete version-1 file of the empty graph: magic, version 1,
    // measure, weighted, n = 0, slots = 0, graph offsets [0], core-order
    // offsets (count 1, [0]), checksum.
    let mut v1 = b"PSCI".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&[0, 0]);
    for word in [0u64, 0, 0, 1, 0] {
        v1.extend_from_slice(&word.to_le_bytes());
    }
    v1.extend_from_slice(&[0; 8]);
    reseal(&mut v1);
    let err = ScanIndex::from_snapshot_bytes(&v1).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version 1"), "{err}");

    // A version-2 file whose BREAKPOINTS table entry (id 10) is renamed
    // to an unknown id: the section is then absent.
    let (g, _) = generators::planted_partition(200, 4, 8.0, 1.0, 3);
    let mut v2 = ScanIndex::build(g, IndexConfig::default()).to_snapshot_bytes();
    let sections = u32::from_le_bytes(v2[8..12].try_into().unwrap()) as usize;
    let entry = (0..sections)
        .map(|i| 40 + i * 24)
        .find(|&at| u32::from_le_bytes(v2[at..at + 4].try_into().unwrap()) == 10)
        .expect("snapshots carry a breakpoints section");
    v2[entry..entry + 4].copy_from_slice(&99u32.to_le_bytes());
    reseal(&mut v2);
    let err = ScanIndex::from_snapshot_bytes(&v2).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("breakpoints"), "{err}");
}

fn request(session: &mut BufReader<TcpStream>, line: &str) -> String {
    session
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    session.read_line(&mut response).expect("read response");
    assert!(response.ends_with('\n'), "connection closed: {response:?}");
    response
}

#[test]
fn server_answers_hostile_loads_with_typed_errors() {
    let _serial = serial();
    let dir = temp_dir("wire");
    let graph = dir.join("default.txt");
    let (g, _) = generators::planted_partition(300, 3, 8.0, 1.0, 9);
    parscan::graph::io::write_edge_list_text(&g, &graph).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_parscan"))
        .arg("serve")
        .arg(&graph)
        .args(["--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn parscan serve");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before its banner")
            .expect("read banner");
        if line.starts_with("serving") {
            let rest = line.split(" on ").nth(1).expect("banner names the address");
            break rest
                .split_whitespace()
                .next()
                .expect("addr token")
                .to_string();
        }
    };
    let drain = std::thread::spawn(move || for _ in lines {});
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut session = BufReader::new(stream);

    for (i, path) in hostile_files(&dir).iter().enumerate() {
        let reply = request(&mut session, &format!("LOAD hostile{i} {}", path.display()));
        print!(
            "LOAD {}: {reply}",
            path.file_name().unwrap().to_string_lossy()
        );
        assert!(reply.contains(r#""ok":false"#), "{reply}");
        assert!(reply.contains(r#""retryable":false"#), "{reply}");
        let pong = request(&mut session, "PING");
        assert!(pong.contains(r#""op":"pong""#), "{pong}");
    }
    assert!(
        child.try_wait().expect("poll server").is_none(),
        "server exited"
    );
    child.kill().expect("kill server");
    child.wait().expect("reap server");
    drain.join().expect("stdout drain");
    std::fs::remove_dir_all(dir).ok();
}
