//! Graph serialization: whitespace edge-list text (interoperable with SNAP
//! dumps, which the paper's datasets ship as) and a compact little-endian
//! binary format for fast reload of generated benchmark inputs.
//!
//! Binary layout (all little-endian, arrays through [`crate::codec`]):
//! `magic "PSCG" | version u32 | weighted u8 | n u64 | slots u64 |
//!  offsets (n+1)×u64 | neighbors slots×u32 | [weights slots×f32]`
//!
//! The header fixes the file length exactly: a binary graph file is
//! `25 + (n+1)·8 + slots·4·(1 + weighted)` bytes long. [`read_binary`]
//! rejects any file of another length (computed with checked arithmetic)
//! before it allocates anything sized from the header, so a header that
//! claims a huge graph costs nothing. The parts then go through
//! [`CsrGraph::try_from_parts`], so every structural defect is an
//! `InvalidData` error too.

use crate::codec;
use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PSCG";
const VERSION: u32 = 1;
/// Byte length of the header (magic, version, weighted flag, n, slots).
const HEADER_BYTES: usize = 25;

/// Read a graph file, choosing the reader by extension: `.bin` is the
/// binary format, `.graph`/`.metis` METIS, anything else a whitespace
/// edge list (vertex count inferred from the largest id).
pub fn read_graph(path: &str) -> io::Result<CsrGraph> {
    if path.ends_with(".bin") {
        read_binary(path)
    } else if path.ends_with(".graph") || path.ends_with(".metis") {
        crate::metis::read_metis(path)
    } else {
        read_edge_list_text(path, None)
    }
}

/// Write `g` as a text edge list (`u v` or `u v w` per line, canonical
/// `u < v` orientation, `#`-prefixed header).
pub fn write_edge_list_text<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# parscan edge list: n={} m={} weighted={}",
        g.num_vertices(),
        g.num_edges(),
        g.is_weighted()
    )?;
    for (u, v, slot) in g.canonical_edges() {
        if g.is_weighted() {
            writeln!(w, "{u} {v} {}", g.slot_weight(slot))?;
        } else {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

/// Read a text edge list. Lines starting with `#` or `%` are comments.
/// Two columns ⇒ unweighted, three ⇒ weighted. `n` is inferred as
/// `max id + 1` unless `n_hint` supplies a larger vertex count.
pub fn read_edge_list_text<P: AsRef<Path>>(path: P, n_hint: Option<usize>) -> io::Result<CsrGraph> {
    let reader = BufReader::new(File::open(path)?);
    let mut edges: Vec<(VertexId, VertexId, f32)> = Vec::new();
    let mut weighted = false;
    let mut max_id: u64 = 0;
    let mut line = String::new();
    let mut reader = reader;
    while reader.read_line(&mut line)? != 0 {
        {
            let t = line.trim();
            if !(t.is_empty() || t.starts_with('#') || t.starts_with('%')) {
                let mut it = t.split_whitespace();
                let u: u64 = parse_field(it.next(), t)?;
                let v: u64 = parse_field(it.next(), t)?;
                let w = match it.next() {
                    Some(ws) => {
                        weighted = true;
                        ws.parse::<f32>()
                            .map_err(|e| bad_data(format!("bad weight {ws:?}: {e}")))?
                    }
                    None => 1.0,
                };
                // Ids index `0..n` with `n = max id + 1` a `u32` too, so
                // `u32::MAX` itself is out of range.
                if u >= u32::MAX as u64 || v >= u32::MAX as u64 {
                    return Err(bad_data(format!("vertex id too large in line {t:?}")));
                }
                max_id = max_id.max(u).max(v);
                edges.push((u as VertexId, v as VertexId, w));
            }
        }
        line.clear();
    }
    let n = n_hint.unwrap_or(0).max(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    Ok(if weighted {
        crate::builder::from_weighted_edges(n, &edges)
    } else {
        let plain: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        crate::builder::from_edges(n, &plain)
    })
}

fn parse_field(field: Option<&str>, line: &str) -> io::Result<u64> {
    field
        .ok_or_else(|| bad_data(format!("missing field in line {line:?}")))?
        .parse::<u64>()
        .map_err(|e| bad_data(format!("bad vertex id in line {line:?}: {e}")))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write the binary format.
pub fn write_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let (offsets, neighbors, weights) = g.parts();
    let mut out = Vec::with_capacity(
        HEADER_BYTES
            + offsets.len() * 8
            + neighbors.len() * 4 * (1 + usize::from(weights.is_some())),
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(u8::from(weights.is_some()));
    out.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
    codec::encode_usizes(&mut out, offsets);
    codec::encode_u32s(&mut out, neighbors);
    if let Some(ws) = weights {
        codec::encode_f32s(&mut out, ws);
    }
    std::fs::write(path, out)
}

/// Read the binary format: one read of the whole file, the exact-length
/// check (see the module docs), one bulk decode per array, then the
/// validating constructor.
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_BYTES || &bytes[..4] != MAGIC {
        return Err(bad_data("not a parscan binary graph".into()));
    }
    let version = codec::u32_at(&bytes, 4);
    if version != VERSION {
        return Err(bad_data(format!("unsupported version {version}")));
    }
    let weighted = bytes[8] != 0;
    let n = codec::u64_at(&bytes, 9);
    let slots = codec::u64_at(&bytes, 17);
    let offsets_len = n.checked_add(1).and_then(|x| x.checked_mul(8));
    let slot_len = slots.checked_mul(4 * (1 + u64::from(weighted)));
    let expected = offsets_len
        .zip(slot_len)
        .and_then(|(a, b)| a.checked_add(b))
        .and_then(|x| x.checked_add(HEADER_BYTES as u64));
    if expected != Some(bytes.len() as u64) {
        return Err(bad_data(format!(
            "header claims n = {n} and {slots} slots, which does not match the file length {}",
            bytes.len()
        )));
    }
    // The length matched, so both counts fit the file and hence `usize`.
    let (n, slots) = (n as usize, slots as usize);
    let neighbors_at = HEADER_BYTES + (n + 1) * 8;
    let weights_at = neighbors_at + slots * 4;
    let offsets = codec::decode_usizes(&bytes[HEADER_BYTES..neighbors_at]);
    let neighbors = codec::decode_u32s(&bytes[neighbors_at..weights_at]);
    let weights = weighted.then(|| codec::decode_f32s(&bytes[weights_at..]));
    drop(bytes);
    CsrGraph::try_from_parts(offsets, neighbors, weights)
        .map_err(|e| bad_data(format!("invalid graph in binary file: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("parscan_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn text_round_trip_unweighted() {
        let g = generators::erdos_renyi(200, 800, 5);
        let p = tmp("text_unw");
        write_edge_list_text(&g, &p).unwrap();
        let h = read_edge_list_text(&p, Some(200)).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn text_round_trip_weighted() {
        let (g, _) = generators::weighted_planted_partition(150, 3, 8.0, 1.0, 2);
        let p = tmp("text_w");
        write_edge_list_text(&g, &p).unwrap();
        let h = read_edge_list_text(&p, Some(150)).unwrap();
        assert_eq!(g.num_edges(), h.num_edges());
        // Weights survive within f32 text precision.
        for (u, v, slot) in g.canonical_edges() {
            let hs = h.slot_of(u, v).expect("edge preserved");
            assert!((g.slot_weight(slot) - h.slot_weight(hs)).abs() < 1e-5);
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_round_trip() {
        let g = generators::rmat(10, 8, 3);
        let p = tmp("bin");
        write_binary(&g, &p).unwrap();
        let h = read_binary(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_round_trip_weighted() {
        let (g, _) = generators::weighted_planted_partition(100, 2, 6.0, 1.0, 8);
        let p = tmp("bin_w");
        write_binary(&g, &p).unwrap();
        let h = read_binary(&p).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn rejects_garbage() {
        let p = tmp("garbage");
        std::fs::write(&p, b"NOTAGRAPH").unwrap();
        assert!(read_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn text_comments_and_blank_lines() {
        let p = tmp("comments");
        std::fs::write(&p, "# header\n\n% more\n0 1\n1 2\n").unwrap();
        let g = read_edge_list_text(&p, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(p).ok();
    }
}
