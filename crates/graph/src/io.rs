//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The text loader accepts the format of SNAP downloads (the paper's LJ, OR
//! and FR sources): one `u v` pair per line, `#`-prefixed comment lines,
//! arbitrary whitespace. A user with the real datasets can therefore run
//! every experiment on them. The binary format avoids re-parsing large
//! graphs between runs.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::CsrGraph;
use crate::edgelist::EdgeList;

fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Word `i` of a block of little-endian u64 words (panics only on an index
/// past the block, which callers rule out with fixed-size headers).
pub(crate) fn le_word(block: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(block.as_chunks::<8>().0[i])
}

/// The little-endian u64 words of `bytes`; a trailing partial word is
/// ignored.
pub(crate) fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .as_chunks::<8>()
        .0
        .iter()
        .map(|w| u64::from_le_bytes(*w))
}

/// The little-endian u32 words of `bytes`; a trailing partial word is
/// ignored.
pub(crate) fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|w| u32::from_le_bytes(*w))
}

/// Magic header of the binary CSR format.
const MAGIC: &[u8; 8] = b"CNCCSR01";

/// Read exactly `len` bytes of `what` into a fresh buffer, growing it as the
/// data arrives. Unlike `vec![0; len]` + `read_exact`, a malformed header
/// advertising an absurd element count cannot trigger a huge up-front
/// allocation (or an arithmetic panic): allocation is bounded by what the
/// reader actually yields, and a short read is an `InvalidData` error.
pub(crate) fn read_exact_vec<R: Read>(r: &mut R, len: u64, what: &str) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let got = r.take(len).read_to_end(&mut buf)?;
    if got as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("truncated {what}: expected {len} bytes, got {got}"),
        ));
    }
    Ok(buf)
}

/// Parse one line of SNAP text: `Ok(None)` for comment/blank lines,
/// `Ok(Some((u, v)))` for a data line.
///
/// A malformed line is an [`io::ErrorKind::InvalidData`] error carrying the
/// 1-based line number, the token that failed, and the full offending line.
/// Shared by the buffered reader below and the chunked streaming source in
/// [`crate::stream`], so diagnostics stay identical whichever path parses a
/// file (the streamer threads its running line count through `lineno`).
pub(crate) fn parse_edge_line(lineno: u64, line: &str) -> io::Result<Option<(u32, u32)>> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let bad =
        |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {what}"));
    let mut it = t.split_whitespace();
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => {
            let u: u32 = a
                .parse()
                .map_err(|e| bad(format!("bad vertex id {a:?} ({e}) in line {t:?}")))?;
            let v: u32 = b
                .parse()
                .map_err(|e| bad(format!("bad vertex id {b:?} ({e}) in line {t:?}")))?;
            Ok(Some((u, v)))
        }
        _ => Err(bad(format!("expected two vertex ids, got {t:?}"))),
    }
}

/// Parse a SNAP-style edge list from a reader.
///
/// Lines starting with `#` (or `%`, as used by some mirrors) are comments.
/// Each data line holds two whitespace-separated vertex ids. The result is
/// normalized (undirected, deduplicated, no self-loops).
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<EdgeList> {
    let mut el = EdgeList::new(0);
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0u64;
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        if let Some((u, v)) = parse_edge_line(lineno, &line)? {
            el.push(u, v);
        }
    }
    el.normalize();
    Ok(el)
}

/// Read an edge-list file from disk (see [`read_edge_list`]).
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write an edge list in SNAP text format (one `u v` per line).
pub fn write_edge_list<W: Write>(el: &EdgeList, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# undirected edge list, {} vertices", el.num_vertices)?;
    for (u, v) in el.iter() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()
}

/// Serialize a CSR graph to the compact binary format.
///
/// Layout: magic, `|V|` and `|dst|` as u64 little-endian, the offset array
/// as u64s, the dst array as u32s.
pub fn write_csr<W: Write>(g: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(MAGIC);
    put_u64_le(&mut header, g.num_vertices() as u64);
    put_u64_le(&mut header, g.num_directed_edges() as u64);
    w.write_all(&header)?;
    let mut chunk = Vec::with_capacity(8 * 1024);
    for &o in g.offsets() {
        put_u64_le(&mut chunk, o as u64);
        if chunk.len() >= 8 * 1024 {
            w.write_all(&chunk)?;
            chunk.clear();
        }
    }
    w.write_all(&chunk)?;
    chunk.clear();
    for &d in g.dst() {
        put_u32_le(&mut chunk, d);
        if chunk.len() >= 8 * 1024 {
            w.write_all(&chunk)?;
            chunk.clear();
        }
    }
    w.write_all(&chunk)?;
    w.flush()
}

/// Deserialize a CSR graph written by [`write_csr`].
///
/// Any malformed input — wrong magic, truncation, or a byte stream whose
/// offsets/dst arrays violate the CSR invariants — is an
/// [`io::ErrorKind::InvalidData`] error, never a panic.
pub fn read_csr<R: Read>(reader: R) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    if &header[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic: not a CNCCSR01 file",
        ));
    }
    let (n, m) = (le_word(&header, 1), le_word(&header, 2));
    let offsets_raw = read_exact_vec(
        &mut r,
        n.saturating_add(1).saturating_mul(8),
        "offset array",
    )?;
    let offsets = le_u64s(&offsets_raw).map(|o| o as usize).collect();
    let dst_raw = read_exact_vec(&mut r, m.saturating_mul(4), "dst array")?;
    let dst = le_u32s(&dst_raw).collect();
    CsrGraph::try_from_parts(offsets, dst)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("inconsistent CSR: {e}")))
}

/// Magic header of the binary counts format.
const COUNTS_MAGIC: &[u8; 8] = b"CNCCNT01";

/// Serialize a per-edge-slot counts array (must belong to a CSR with
/// `counts.len()` directed edge slots).
pub fn write_counts<W: Write>(counts: &[u32], writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(COUNTS_MAGIC);
    put_u64_le(&mut header, counts.len() as u64);
    w.write_all(&header)?;
    let mut chunk = Vec::with_capacity(8 * 1024);
    for &c in counts {
        put_u32_le(&mut chunk, c);
        if chunk.len() >= 8 * 1024 {
            w.write_all(&chunk)?;
            chunk.clear();
        }
    }
    w.write_all(&chunk)?;
    w.flush()
}

/// Deserialize a counts array written by [`write_counts`].
///
/// Malformed input (wrong magic, truncation, an absurd advertised length) is
/// an [`io::ErrorKind::InvalidData`] error, never a panic.
pub fn read_counts<R: Read>(reader: R) -> io::Result<Vec<u32>> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if &header[..8] != COUNTS_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic: not a CNCCNT01 file",
        ));
    }
    let raw = read_exact_vec(
        &mut r,
        le_word(&header, 1).saturating_mul(4),
        "counts array",
    )?;
    Ok(le_u32s(&raw).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn text_roundtrip() {
        let el = generators::gnm(50, 120, 9);
        let mut buf = Vec::new();
        write_edge_list(&el, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(el.edges, back.edges);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# SNAP header\n% other comment\n\n0 1\n1\t2\n  2   3  \n";
        let el = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(el.edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    /// Every malformed line shape must surface an `InvalidData` error whose
    /// message carries the 1-based line number and the offending text.
    fn assert_malformed(text: &str, lineno: u64, fragment: &str) {
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "input {text:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {lineno}")),
            "missing line number in {msg:?} for {text:?}"
        );
        assert!(
            msg.contains(fragment),
            "missing offending text {fragment:?} in {msg:?}"
        );
    }

    #[test]
    fn malformed_nonnumeric_first_id() {
        assert_malformed("# header\n0 1\nabc 2\n", 3, "\"abc\"");
    }

    #[test]
    fn malformed_nonnumeric_second_id() {
        assert_malformed("0 1\n2 x7\n", 2, "\"x7\"");
    }

    #[test]
    fn malformed_single_token() {
        assert_malformed("0 1\n\n42\n", 3, "\"42\"");
    }

    #[test]
    fn malformed_overflowing_id() {
        // 2^32 does not fit a u32 vertex id.
        assert_malformed("4294967296 0\n", 1, "\"4294967296\"");
    }

    #[test]
    fn malformed_negative_id() {
        assert_malformed("0 1\n-3 4\n", 2, "\"-3\"");
    }

    #[test]
    fn malformed_line_reports_full_line_text() {
        // The whole line, not just the bad token, appears in the message.
        assert_malformed("0 1\n7 bad_token trailing\n", 2, "\"7 bad_token trailing\"");
    }

    #[test]
    fn binary_roundtrip() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(300, 8.0, 2.3, 4));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(g, back);
        back.validate().unwrap();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTAMAGIC_______plus_more_bytes_________".to_vec();
        assert!(read_csr(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_truncated() {
        let g = CsrGraph::from_edge_list(&generators::gnm(20, 40, 2));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_csr(buf.as_slice()).is_err());
    }

    #[test]
    fn binary_rejects_invalid_csr_with_valid_magic() {
        // Valid magic and lengths but inconsistent offsets: must be an
        // InvalidData error, not a panic out of CsrGraph::from_parts.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u64_le(&mut buf, 1); // |V| = 1
        put_u64_le(&mut buf, 1); // |dst| = 1
        put_u64_le(&mut buf, 0); // offsets[0]
        put_u64_le(&mut buf, 2); // offsets[1] — endpoint != |dst|
        put_u32_le(&mut buf, 0);
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Asymmetric adjacency behind a well-formed header.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u64_le(&mut buf, 2); // |V| = 2
        put_u64_le(&mut buf, 1); // |dst| = 1
        for o in [0u64, 1, 1] {
            put_u64_le(&mut buf, o);
        }
        put_u32_le(&mut buf, 1); // 0 → 1 but no 1 → 0
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_absurd_advertised_sizes() {
        // A header claiming u64::MAX vertices must fail cleanly instead of
        // panicking on size arithmetic or attempting a huge allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u64_le(&mut buf, u64::MAX);
        put_u64_le(&mut buf, u64::MAX);
        let err = read_csr(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut buf = Vec::new();
        buf.extend_from_slice(COUNTS_MAGIC);
        put_u64_le(&mut buf, u64::MAX);
        let err = read_counts(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn counts_roundtrip() {
        let counts: Vec<u32> = (0..5000).map(|x| x * 7 % 113).collect();
        let mut buf = Vec::new();
        write_counts(&counts, &mut buf).unwrap();
        assert_eq!(read_counts(buf.as_slice()).unwrap(), counts);
        // Empty counts work too.
        let mut buf = Vec::new();
        write_counts(&[], &mut buf).unwrap();
        assert!(read_counts(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn counts_reject_wrong_magic_and_truncation() {
        assert!(read_counts(b"WRONGMAGIC______".as_slice()).is_err());
        let mut buf = Vec::new();
        write_counts(&[1, 2, 3], &mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_counts(buf.as_slice()).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(back.num_vertices(), 0);
    }

    use crate::edgelist::EdgeList;
}
