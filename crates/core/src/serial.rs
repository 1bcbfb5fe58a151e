//! The fingerprint store file, and the typed error of the repo's binary
//! readers.
//!
//! The paper's privacy deployment (§2.5) has clients fingerprint locally
//! and ship *only* their SHFs, so a store must be able to leave the
//! process that made it. A store file records everything that set its
//! bits, the width and the hasher's kind and seed, so whoever opens it
//! folds later deltas with the same hash ([`ShfStore::apply_deltas`] takes
//! no hasher):
//!
//! ```text
//! "GFST" | u32 version | u32 bits | u32 hasher kind | u64 hasher seed | u64 n
//!        | n × u32 card | zero padding to a multiple of 64 KiB
//!        | n × row_words × u64 (the padded arena rows)
//! ```
//!
//! Every field is little-endian. The rows start on a 64 KiB boundary, a
//! multiple of every page size, so the file maps in place: the mapped rows
//! *are* the working arena ([`ShfStore::open_spilled`]), and a spilled
//! [`ShfStreamWriter`](crate::shf::ShfStreamWriter) writes its rows
//! straight into the file and adds the head when it seals. [`read_store`]
//! loads the same file onto the heap from any reader, for hosts without
//! the mapping backend.
//!
//! Both readers parse the head with one function. It rejects an unknown
//! magic, version or hasher kind, a width of 0 or above 2^26 bits, a
//! population above 500M, and a cardinality above the width. Header
//! counts are untrusted: buffers grow only as bytes arrive, so a header
//! claiming a huge population fails at the first missing byte instead of
//! allocating for it. The heap reader also checks every row's popcount
//! against its card; the mapping reader does not, since that would fault
//! in the whole file.

use crate::arena::{row_words_for, AlignedWords};
use crate::bits::BitArray;
use crate::hash::{DynHasher, HasherKind};
use crate::shf::{ShfParams, ShfStore};
use std::io::{self, Read, Write};

const STORE_MAGIC: [u8; 4] = *b"GFST";
const STORE_VERSION: u32 = 1;
/// Bytes of the fixed header in front of the cards.
const HEAD_BYTES: u64 = 32;
/// Alignment of the rows in a store file.
const ROWS_ALIGN: u64 = 1 << 16;
/// Upper bound on the population accepted by the readers.
const MAX_POPULATION: u64 = 500_000_000;
/// Upper bound on the fingerprint width accepted by the readers.
const MAX_BITS: u32 = 1 << 26;
/// Upper bound on the values reserved from an (untrusted) header count.
const MAX_PRERESERVE: usize = 1 << 16;

/// Errors produced while decoding a persisted structure.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure (including truncation).
    Io(io::Error),
    /// The magic/version header did not match.
    BadMagic {
        /// What was expected.
        expected: [u8; 4],
        /// What was found.
        found: [u8; 4],
    },
    /// Structurally inconsistent payload.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "I/O error: {e}"),
            DecodeError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            DecodeError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError::Corrupt(msg.into())
}

/// Hasher kinds, indexed by their code in a store file.
const KINDS: [HasherKind; 4] = [
    HasherKind::Jenkins,
    HasherKind::Lookup3,
    HasherKind::SplitMix,
    HasherKind::FxLike,
];

/// Byte offset of the rows in the store file of `n` fingerprints.
pub(crate) fn rows_offset(n: usize) -> u64 {
    (HEAD_BYTES + 4 * n as u64).next_multiple_of(ROWS_ALIGN)
}

/// The head of a store file: what made its bits, and their cards.
pub(crate) struct StoreHead {
    pub(crate) params: ShfParams,
    pub(crate) cards: Vec<u32>,
    /// Words of padded rows after the head.
    pub(crate) arena_words: usize,
}

/// Writes a store file's head: the header, the cards and the zero padding
/// up to the rows.
pub(crate) fn write_head(w: &mut impl Write, params: &ShfParams, cards: &[u32]) -> io::Result<()> {
    let hasher = params.hasher();
    w.write_all(&STORE_MAGIC)?;
    let kind = KINDS
        .iter()
        .position(|&k| k == hasher.kind())
        .expect("every hasher kind has a code") as u32;
    for field in [STORE_VERSION, params.bits(), kind] {
        w.write_all(&field.to_le_bytes())?;
    }
    w.write_all(&hasher.seed().to_le_bytes())?;
    w.write_all(&(cards.len() as u64).to_le_bytes())?;
    for &c in cards {
        w.write_all(&c.to_le_bytes())?;
    }
    let pad = rows_offset(cards.len()) - HEAD_BYTES - 4 * cards.len() as u64;
    io::copy(&mut io::repeat(0).take(pad), w)?;
    Ok(())
}

/// Parses a store file's head and skips its padding, leaving `r` at the
/// first row.
pub(crate) fn read_head(r: &mut impl Read) -> Result<StoreHead, DecodeError> {
    let mut head = [0u8; HEAD_BYTES as usize];
    r.read_exact(&mut head)?;
    let found: [u8; 4] = head[0..4].try_into().unwrap();
    if found != STORE_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: STORE_MAGIC,
            found,
        });
    }
    let u32_at = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap());
    let u64_at = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().unwrap());
    let version = u32_at(4);
    if version != STORE_VERSION {
        return Err(corrupt(format!("unsupported store version {version}")));
    }
    let bits = u32_at(8);
    if bits == 0 || bits > MAX_BITS {
        return Err(corrupt(format!("implausible fingerprint width {bits}")));
    }
    let kind = *KINDS
        .get(u32_at(12) as usize)
        .ok_or_else(|| corrupt(format!("unknown hasher kind {}", u32_at(12))))?;
    let n = u64_at(24);
    if n > MAX_POPULATION {
        return Err(corrupt(format!("implausible population {n}")));
    }
    let n = usize::try_from(n).map_err(|_| corrupt("population overflows usize"))?;
    let arena_words = row_words_for(BitArray::words_for(bits))
        .checked_mul(n)
        .ok_or_else(|| corrupt("rows overflow usize"))?;
    let cards = read_le(r, n, u32::from_le_bytes)?;
    if let Some((u, c)) = cards.iter().enumerate().find(|&(_, &c)| c > bits) {
        return Err(corrupt(format!(
            "fingerprint {u}: cardinality {c} exceeds width {bits}"
        )));
    }
    let pad = rows_offset(n) - HEAD_BYTES - 4 * n as u64;
    if io::copy(&mut r.by_ref().take(pad), &mut io::sink())? != pad {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(StoreHead {
        params: ShfParams::new(bits, DynHasher::new(kind, u64_at(16))),
        cards,
        arena_words,
    })
}

/// Reads `n` little-endian values of `W` bytes each. The buffer grows only
/// as values arrive, from at most [`MAX_PRERESERVE`] reserved up front.
fn read_le<const W: usize, T>(
    r: &mut impl Read,
    n: usize,
    decode: fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(MAX_PRERESERVE));
    let mut buf = [0u8; W];
    for _ in 0..n {
        r.read_exact(&mut buf)?;
        out.push(decode(buf));
    }
    Ok(out)
}

/// Writes `store` as a store file: its head, then its padded rows.
pub fn write_store(store: &ShfStore, w: &mut impl Write) -> io::Result<()> {
    write_head(w, store.params(), store.cards())?;
    for &word in store.arena_words() {
        w.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a store file onto the heap, from any reader. Besides the head's
/// checks, every padded row's popcount must equal its card.
pub fn read_store(r: &mut impl Read) -> Result<ShfStore, DecodeError> {
    let head = read_head(r)?;
    let words = read_le(r, head.arena_words, u64::from_le_bytes)?;
    let row_words = row_words_for(BitArray::words_for(head.params.bits()));
    for (u, (row, &card)) in words.chunks_exact(row_words).zip(&head.cards).enumerate() {
        let actual: u32 = row.iter().map(|w| w.count_ones()).sum();
        if actual != card {
            return Err(corrupt(format!(
                "fingerprint {u}: cached cardinality {card} != popcount {actual}"
            )));
        }
    }
    Ok(ShfStore::from_arena(
        head.params,
        AlignedWords::from(&words[..]).into(),
        head.cards,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileStore;

    fn store() -> ShfStore {
        let profiles = ProfileStore::from_item_lists(vec![
            (0..80).collect(),
            (40..120).collect(),
            vec![],
            vec![7],
        ]);
        ShfParams::new(256, DynHasher::new(HasherKind::SplitMix, 9)).fingerprint_store(&profiles)
    }

    fn bytes(store: &ShfStore) -> Vec<u8> {
        let mut buf = Vec::new();
        write_store(store, &mut buf).unwrap();
        buf
    }

    /// A bare header with the given fields and no cards or rows.
    fn header(version: u32, bits: u32, kind: u32, n: u64) -> Vec<u8> {
        let mut buf = STORE_MAGIC.to_vec();
        for field in [version, bits, kind] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf
    }

    fn corrupt_msg(buf: &[u8]) -> String {
        match read_store(&mut &buf[..]) {
            Err(DecodeError::Corrupt(msg)) => msg,
            other => panic!("expected a corruption error, got {other:?}"),
        }
    }

    #[test]
    fn store_roundtrips_with_its_hasher() {
        let shf = store();
        let buf = bytes(&shf);
        assert_eq!(buf.len() as u64, rows_offset(4) + 4 * 4 * 8);
        let back = read_store(&mut buf.as_slice()).unwrap();
        assert_eq!(back.params(), shf.params());
        assert_eq!(back.cards(), shf.cards());
        assert_eq!(back.arena_words(), shf.arena_words());
        assert_eq!(back.jaccard(0, 1), shf.jaccard(0, 1));
    }

    #[test]
    fn empty_store_roundtrips() {
        let shf = ShfParams::new(64, DynHasher::default())
            .fingerprint_store(&ProfileStore::from_item_lists(vec![]));
        let back = read_store(&mut bytes(&shf).as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.params(), shf.params());
    }

    #[test]
    fn truncation_at_every_header_field_is_an_io_error() {
        let buf = bytes(&store());
        // Inside magic, version, bits, hasher kind, seed and population;
        // then inside the cards, the padding and the rows.
        for cut in [2, 6, 10, 14, 20, 28, 33, 60, 100, buf.len() - 1] {
            assert!(
                matches!(
                    read_store(&mut &buf[..cut]),
                    Err(DecodeError::Io(ref e)) if e.kind() == io::ErrorKind::UnexpectedEof
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_and_unknown_version_are_rejected() {
        let mut buf = bytes(&store());
        buf[0] = b'X';
        assert!(matches!(
            read_store(&mut buf.as_slice()),
            Err(DecodeError::BadMagic { .. })
        ));
        assert!(corrupt_msg(&header(2, 64, 0, 0)).contains("version 2"));
    }

    #[test]
    fn unknown_hasher_kind_and_implausible_width_are_rejected() {
        assert!(corrupt_msg(&header(STORE_VERSION, 64, 4, 0)).contains("hasher kind 4"));
        assert!(corrupt_msg(&header(STORE_VERSION, 0, 0, 0)).contains("width 0"));
        assert!(corrupt_msg(&header(STORE_VERSION, MAX_BITS + 1, 0, 0)).contains("width"));
    }

    #[test]
    fn card_above_the_width_is_rejected() {
        let mut buf = header(STORE_VERSION, 64, 0, 2);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&65u32.to_le_bytes());
        assert!(corrupt_msg(&buf).contains("cardinality 65 exceeds width 64"));
    }

    #[test]
    fn huge_populations_fail_without_allocating_for_them() {
        // Past the population guard, where n·4 and row_words·n overflow.
        for n in [u64::MAX, u64::MAX / 4 + 1, MAX_POPULATION + 1] {
            assert!(corrupt_msg(&header(STORE_VERSION, 64, 0, n)).contains("population"));
        }
        // The largest accepted population at the widest width claims
        // petabytes of rows; reads stop at the first missing card.
        let buf = header(STORE_VERSION, MAX_BITS, 0, MAX_POPULATION);
        assert!(matches!(
            read_store(&mut buf.as_slice()),
            Err(DecodeError::Io(_) | DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn flipped_row_bit_is_caught_by_the_cardinality_check() {
        let mut buf = bytes(&store());
        // The top byte of the last row's last word.
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        assert!(corrupt_msg(&buf).contains("popcount"));
    }
}
