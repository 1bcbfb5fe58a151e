//! The `GFCS` graph file format: CSR neighbour lists with delta-varint id
//! compression and exact `f64` similarities.
//!
//! A `GFCS` segment is the serialized form of a contiguous user range of a
//! [`KnnGraph`]. It is the repo's one graph file format:
//!
//! - a whole graph is one segment with `user_lo = 0`
//!   ([`write_knn_graph`] / [`read_knn_graph`]) — what the CLI writes;
//! - the out-of-core build spills each finished shard as a segment and
//!   stitches them back in user order ([`Segment::append_into`]).
//!
//! Neighbour ids are delta-encoded in list order (zigzag + varint — LSH
//! neighbourhoods are id-clustered, so deltas are short) and similarities
//! are stored as exact `f64`, so every round trip is **bit-identical**.
//!
//! Readers validate the header and every edge (in-range neighbour ids, no
//! self-loops, finite similarities in `[0, 1]`, descending order, no
//! duplicates), so a corrupted graph cannot silently poison a
//! recommender. Header counts are untrusted: pre-reservations are capped
//! and storage grows as lists decode, so a header claiming a huge
//! population fails at the first missing byte instead of aborting on
//! allocation.
//!
//! ```text
//! "GFCS" | u8 version | u8 flags | u16 0 | u32 k | u64 user_lo | u64 n
//! per user: uvarint degree | degree × zigzag-uvarint id delta
//!         | degree × f64 sim
//! ```

use crate::graph::{CsrBuilder, KnnGraph};
use goldfinger_core::serial::DecodeError;
use goldfinger_core::topk::Scored;
use std::io::{self, Read, Write};

/// Magic of a `GFCS` graph segment.
pub const SEGMENT_MAGIC: &[u8; 4] = b"GFCS";
const SEGMENT_VERSION: u8 = 1;
/// Flag bit: similarities are stored as exact `f64`. Every segment sets
/// it; readers reject any other flag combination.
const FLAG_EXACT_SIMS: u8 = 1;
/// Upper bound on the users pre-reserved from an (untrusted) header.
const MAX_PRERESERVE: usize = 1 << 16;

fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError::Corrupt(msg.into())
}

/// Writes `v` in LEB128 (7 bits per byte, little-endian groups).
fn write_uvarint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a LEB128 integer (rejects encodings longer than 10 bytes).
fn read_uvarint(r: &mut impl Read) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming writer of one `GFCS` segment covering the contiguous user
/// range `user_lo .. user_lo + n_users` of a graph. Lists are pushed in
/// user order; ids in a list are **global** user ids.
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    w: W,
    k: usize,
    user_lo: u64,
    n_users: u64,
    pushed: u64,
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the segment header.
    pub fn new(mut w: W, k: usize, user_lo: u64, n_users: u64) -> io::Result<Self> {
        w.write_all(SEGMENT_MAGIC)?;
        w.write_all(&[SEGMENT_VERSION, FLAG_EXACT_SIMS, 0, 0])?;
        w.write_all(&(k as u32).to_le_bytes())?;
        w.write_all(&user_lo.to_le_bytes())?;
        w.write_all(&n_users.to_le_bytes())?;
        Ok(SegmentWriter {
            w,
            k,
            user_lo,
            n_users,
            pushed: 0,
        })
    }

    /// Appends the next user's neighbour list (global ids, sorted by
    /// decreasing similarity as everywhere else).
    ///
    /// # Panics
    /// Panics if more than `n_users` lists are pushed or a list exceeds
    /// `k` — writer bugs, not data corruption.
    pub fn push_list(&mut self, list: &[Scored]) -> io::Result<()> {
        assert!(self.pushed < self.n_users, "segment already full");
        assert!(list.len() <= self.k, "list exceeds k");
        self.pushed += 1;
        write_uvarint(&mut self.w, list.len() as u64)?;
        let mut prev = 0i64;
        for s in list {
            let id = i64::from(s.user);
            write_uvarint(&mut self.w, zigzag(id - prev))?;
            prev = id;
        }
        for s in list {
            self.w.write_all(&s.sim.to_le_bytes())?;
        }
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    /// Panics if fewer than `n_users` lists were pushed.
    pub fn finish(mut self) -> io::Result<W> {
        assert_eq!(self.pushed, self.n_users, "segment is missing lists");
        self.w.flush()?;
        Ok(self.w)
    }

    /// First global user id covered by this segment.
    pub fn user_lo(&self) -> u64 {
        self.user_lo
    }
}

/// One decoded `GFCS` segment: the neighbour lists of users
/// `user_lo .. user_lo + n_users()`, validated on read.
#[derive(Debug, Clone)]
pub struct Segment {
    k: usize,
    user_lo: u64,
    offsets: Vec<u64>,
    ids: Vec<u32>,
    sims: Vec<f64>,
}

impl Segment {
    /// Neighbourhood size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// First global user id covered.
    pub fn user_lo(&self) -> u64 {
        self.user_lo
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The decoded entries of local user `u` (0-based within the
    /// segment), as [`Scored`] entries with global ids.
    fn entries(&self, u: usize) -> impl Iterator<Item = Scored> + '_ {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.ids[lo..hi]
            .iter()
            .zip(&self.sims[lo..hi])
            .map(|(&user, &sim)| Scored { sim, user })
    }

    /// The decoded neighbour list of local user `u` (0-based within the
    /// segment), as [`Scored`] entries with global ids.
    pub fn list(&self, u: usize) -> Vec<Scored> {
        self.entries(u).collect()
    }

    /// Appends every list of this segment into a [`CsrBuilder`] — the
    /// stitching primitive: feed segments in ascending `user_lo` order
    /// and `finish()` the builder into the full graph.
    pub fn append_into(&self, builder: &mut CsrBuilder) {
        for u in 0..self.n_users() {
            builder.push_sorted(self.entries(u));
        }
    }
}

/// Writes the user range `lo..hi` of a graph as one `GFCS` segment.
pub fn write_graph_segment(graph: &KnnGraph, lo: u32, hi: u32, w: impl Write) -> io::Result<()> {
    assert!(lo <= hi && hi as usize <= graph.n_users(), "invalid range");
    let mut seg = SegmentWriter::new(w, graph.k(), u64::from(lo), u64::from(hi - lo))?;
    for u in lo..hi {
        seg.push_list(graph.neighbors(u))?;
    }
    seg.finish()?;
    Ok(())
}

/// Writes a whole KNN graph as one `GFCS` segment (`user_lo = 0`).
pub fn write_knn_graph(graph: &KnnGraph, w: &mut impl Write) -> io::Result<()> {
    write_graph_segment(graph, 0, graph.n_users() as u32, w)
}

/// Reads and validates a whole KNN graph written by [`write_knn_graph`]:
/// one segment starting at user 0, whose population is the header's `n`.
pub fn read_knn_graph(r: &mut impl Read) -> Result<KnnGraph, DecodeError> {
    let (k, user_lo, n) = read_header(r)?;
    if user_lo != 0 {
        return Err(corrupt(format!(
            "graph file starts at user {user_lo}, not 0"
        )));
    }
    let mut graph = CsrBuilder::new(k);
    read_lists(r, k, 0, n, n)?.append_into(&mut graph);
    Ok(graph.finish())
}

/// Reads and validates one `GFCS` segment. `n_total` is the population of
/// the full graph the segment belongs to (bounds neighbour ids).
pub fn read_segment(r: &mut impl Read, n_total: u64) -> Result<Segment, DecodeError> {
    let (k, user_lo, n_users) = read_header(r)?;
    read_lists(r, k, user_lo, n_users, n_total)
}

/// Reads the fixed header: `(k, user_lo, n_users)`.
fn read_header(r: &mut impl Read) -> Result<(usize, u64, u64), DecodeError> {
    let mut head = [0u8; 28];
    r.read_exact(&mut head)?;
    if head[0..4] != *SEGMENT_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: *SEGMENT_MAGIC,
            found: [head[0], head[1], head[2], head[3]],
        });
    }
    if head[4] != SEGMENT_VERSION {
        return Err(corrupt(format!("unsupported segment version {}", head[4])));
    }
    if head[5] != FLAG_EXACT_SIMS {
        return Err(corrupt(format!("unsupported segment flags {:#x}", head[5])));
    }
    let k = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    let user_lo = u64::from_le_bytes(head[12..20].try_into().unwrap());
    let n_users = u64::from_le_bytes(head[20..28].try_into().unwrap());
    Ok((k, user_lo, n_users))
}

/// Decodes and validates the lists of users `user_lo .. user_lo +
/// n_users` of a graph over `n_total` users.
fn read_lists(
    r: &mut impl Read,
    k: usize,
    user_lo: u64,
    n_users: u64,
    n_total: u64,
) -> Result<Segment, DecodeError> {
    if k == 0 || user_lo.saturating_add(n_users) > n_total {
        return Err(corrupt(format!(
            "implausible segment header: k = {k}, range {user_lo}+{n_users} of {n_total}"
        )));
    }
    let n_users = usize::try_from(n_users).map_err(|_| corrupt("segment too large for usize"))?;
    let mut offsets = Vec::with_capacity(n_users.min(MAX_PRERESERVE) + 1);
    offsets.push(0u64);
    let mut ids = Vec::new();
    let mut sims = Vec::new();
    for local in 0..n_users {
        let global = user_lo + local as u64;
        let degree = read_uvarint(r)?;
        if degree > k as u64 {
            return Err(corrupt(format!(
                "user {global}: {degree} neighbours exceed k = {k}"
            )));
        }
        let degree = degree as usize;
        let mut prev = 0i64;
        let base = ids.len();
        for _ in 0..degree {
            let id = prev
                .checked_add(unzigzag(read_uvarint(r)?))
                .and_then(|id| u32::try_from(id).ok())
                .filter(|&id| u64::from(id) < n_total)
                .ok_or_else(|| corrupt(format!("user {global}: neighbour out of range")))?;
            if u64::from(id) == global {
                return Err(corrupt(format!("user {global} is its own neighbour")));
            }
            prev = i64::from(id);
            ids.push(id);
        }
        for _ in 0..degree {
            let mut b = [0u8; 8];
            r.read_exact(&mut b)?;
            let sim = f64::from_le_bytes(b);
            if !sim.is_finite() || !(0.0..=1.0).contains(&sim) {
                return Err(corrupt(format!(
                    "user {global}: similarity {sim} out of range"
                )));
            }
            sims.push(sim);
        }
        let list = &ids[base..];
        let list_sims = &sims[base..];
        if list_sims
            .windows(2)
            .zip(list.windows(2))
            .any(|(s, i)| s[0] < s[1] || (s[0] == s[1] && i[0] >= i[1]))
        {
            return Err(corrupt(format!("user {global}: neighbour list mis-sorted")));
        }
        let mut sorted: Vec<u32> = list.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(format!("user {global}: duplicate neighbours")));
        }
        offsets.push(ids.len() as u64);
    }
    Ok(Segment {
        k,
        user_lo,
        offsets,
        ids,
        sims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;

    fn graph() -> KnnGraph {
        let mut lists: Vec<Vec<u32>> = (0..17)
            .map(|u| ((u * 4)..(u * 4 + 10 + u % 7)).collect())
            .collect();
        lists.push(vec![]); // an empty profile
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        BruteForce::default().build(&sim, 3).graph
    }

    fn s(sim: f64, user: u32) -> Scored {
        Scored { sim, user }
    }

    /// A graph file whose lists are written verbatim: the writer checks
    /// only list counts and lengths, so it can encode corrupt content.
    fn raw_graph(k: usize, lists: &[Vec<Scored>]) -> Vec<u8> {
        let mut seg = SegmentWriter::new(Vec::new(), k, 0, lists.len() as u64).unwrap();
        for list in lists {
            seg.push_list(list).unwrap();
        }
        seg.finish().unwrap()
    }

    fn assert_corrupt(bytes: &[u8], needle: &str) {
        match read_knn_graph(&mut &bytes[..]) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a {needle:?} error, got {other:?}"),
        }
    }

    #[test]
    fn graph_roundtrips() {
        let g = graph();
        let mut buf = Vec::new();
        write_knn_graph(&g, &mut buf).unwrap();
        let back = read_knn_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(back.k(), g.k());
        assert_eq!(back.n_users(), g.n_users());
        for u in 0..g.n_users() as u32 {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    fn exact_segments_stitch_bit_identically() {
        let g = graph();
        let n = g.n_users() as u32;
        // Three uneven ranges covering the whole graph.
        let cuts = [0u32, 5, 6, n];
        let mut segments = Vec::new();
        for w in cuts.windows(2) {
            let mut buf = Vec::new();
            write_graph_segment(&g, w[0], w[1], &mut buf).unwrap();
            segments.push(buf);
        }
        let mut builder = CsrBuilder::with_capacity(g.k(), g.n_users());
        for buf in &segments {
            let seg = read_segment(&mut buf.as_slice(), u64::from(n)).unwrap();
            seg.append_into(&mut builder);
        }
        let stitched = builder.finish();
        assert_eq!(stitched.n_edges(), g.n_edges());
        for u in 0..n {
            assert_eq!(stitched.neighbors(u), g.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v).unwrap();
            assert_eq!(read_uvarint(&mut buf.as_slice()).unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn corrupt_segments_are_rejected() {
        let g = graph();
        let n = g.n_users() as u64;
        let mut buf = Vec::new();
        write_graph_segment(&g, 0, g.n_users() as u32, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[1] = b'?';
        assert!(matches!(
            read_segment(&mut bad.as_slice(), n),
            Err(DecodeError::BadMagic { .. })
        ));
        // Unknown flags, and the retired f32-similarity payload (flags 0).
        for flags in [0xFE, 0] {
            let mut bad = buf.clone();
            bad[5] = flags;
            assert!(read_segment(&mut bad.as_slice(), n).is_err());
            assert!(read_knn_graph(&mut bad.as_slice()).is_err());
        }
        // Range beyond the declared population.
        assert!(read_segment(&mut buf.as_slice(), 2).is_err());
        // Truncation surfaces as an I/O error.
        let mut bad = buf.clone();
        bad.truncate(bad.len() - 3);
        assert!(matches!(
            read_segment(&mut bad.as_slice(), n),
            Err(DecodeError::Io(_))
        ));
        bad.truncate(buf.len() / 2);
        assert!(matches!(
            read_knn_graph(&mut bad.as_slice()),
            Err(DecodeError::Io(_))
        ));
    }

    #[test]
    fn graph_file_must_start_at_user_zero() {
        let g = graph();
        let mut buf = Vec::new();
        write_graph_segment(&g, 1, g.n_users() as u32, &mut buf).unwrap();
        assert_corrupt(&buf, "not 0");
    }

    #[test]
    fn out_of_range_neighbor_is_rejected() {
        assert_corrupt(&raw_graph(1, &[vec![s(0.5, 5)]]), "out of range");
    }

    #[test]
    fn nan_similarity_is_rejected() {
        assert_corrupt(&raw_graph(1, &[vec![s(f64::NAN, 1)], vec![]]), "similarity");
    }

    #[test]
    fn self_loop_is_rejected() {
        assert_corrupt(&raw_graph(1, &[vec![s(0.5, 0)]]), "own neighbour");
    }

    #[test]
    fn mis_sorted_list_is_rejected() {
        let lists = [vec![s(0.2, 1), s(0.9, 2)], vec![], vec![]];
        assert_corrupt(&raw_graph(2, &lists), "mis-sorted");
        // Equal similarities must break ties by ascending id.
        let lists = [vec![s(0.5, 2), s(0.5, 1)], vec![], vec![]];
        assert_corrupt(&raw_graph(2, &lists), "mis-sorted");
    }

    #[test]
    fn duplicate_neighbor_is_rejected() {
        let lists = [vec![s(0.9, 1), s(0.5, 2), s(0.3, 1)], vec![], vec![]];
        assert_corrupt(&raw_graph(3, &lists), "duplicate");
    }

    #[test]
    fn huge_header_counts_fail_without_allocating() {
        // k = u32::MAX and n = 2^40 with no body: the reader must reach
        // the missing first list (an I/O error), not reserve n·k edges.
        let mut buf = Vec::new();
        buf.extend_from_slice(SEGMENT_MAGIC);
        buf.extend_from_slice(&[SEGMENT_VERSION, FLAG_EXACT_SIMS, 0, 0]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            read_knn_graph(&mut buf.as_slice()),
            Err(DecodeError::Io(_))
        ));
        assert!(matches!(
            read_segment(&mut buf.as_slice(), 1 << 40),
            Err(DecodeError::Io(_))
        ));
    }

    #[test]
    #[should_panic(expected = "missing lists")]
    fn segment_writer_rejects_short_push_count() {
        let seg = SegmentWriter::new(Vec::new(), 2, 0, 3).unwrap();
        let _ = seg.finish();
    }
}
