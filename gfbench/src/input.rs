//! A packed on-disk profile file and the [`ProfileSource`] that streams it
//! with positioned reads.
//!
//! The out-of-core layer must be timed on its own work, not on how fast
//! the benchmark can synthesise users. Set-up therefore writes the seeded
//! population once as
//!
//! ```text
//! "GFBP" | n_users: u64 | offsets: (n_users + 1) × u64 | items: u32 …
//! ```
//!
//! (all little-endian, `offsets` counted in items), and the timed rounds
//! read it back with `pread`. Only the offset table is held in memory; the
//! items are never mapped, so their pages show in the page cache but not
//! in the process's resident set.

use goldfinger_core::profile::{ItemId, ProfileSource, UserId};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"GFBP";

/// Writes every profile of `source` to `path`; returns the number of
/// (user, item) associations written.
pub fn write_packed(path: &Path, source: &(impl ProfileSource + ?Sized)) -> io::Result<u64> {
    let n = source.n_users();
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(n as u64).to_le_bytes())?;
    // Items stream out behind a hole for the offset table, which is only
    // known once every profile has been produced.
    w.seek(SeekFrom::Start(12 + (n as u64 + 1) * 8))?;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut items = Vec::new();
    for u in 0..n as u32 {
        source.items_into(u, &mut items);
        for &it in &items {
            w.write_all(&it.to_le_bytes())?;
        }
        offsets.push(offsets[u as usize] + items.len() as u64);
    }
    w.seek(SeekFrom::Start(12))?;
    for o in &offsets {
        w.write_all(&o.to_le_bytes())?;
    }
    w.flush()?;
    Ok(offsets[n])
}

/// A packed profile file opened for positioned reads.
#[derive(Debug)]
pub struct PackedProfiles {
    file: File,
    offsets: Vec<u64>,
    items_at: u64,
}

impl PackedProfiles {
    /// Opens a file written by [`write_packed`].
    pub fn open(path: &Path) -> io::Result<PackedProfiles> {
        let file = File::open(path)?;
        let mut r = BufReader::new(&file);
        let mut head = [0u8; 12];
        r.read_exact(&mut head)?;
        if &head[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a GFBP file",
            ));
        }
        let n = u64::from_le_bytes(head[4..].try_into().expect("8 bytes"));
        let file_len = file.metadata()?.len();
        let items_at = n
            .checked_add(1)
            .and_then(|m| m.checked_mul(8))
            .and_then(|b| b.checked_add(12))
            .filter(|&end| end <= file_len)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "offset table past EOF"))?;
        let mut raw = vec![0u8; (items_at - 12) as usize];
        r.read_exact(&mut raw)?;
        let offsets: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let items_end = offsets
            .last()
            .and_then(|&o| o.checked_mul(4))
            .and_then(|b| b.checked_add(items_at));
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || items_end.is_none_or(|end| end > file_len)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad offset table",
            ));
        }
        drop(r);
        Ok(PackedProfiles {
            file,
            offsets,
            items_at,
        })
    }
}

impl ProfileSource for PackedProfiles {
    fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// # Panics
    /// Panics when the read fails: the trait has no error channel, and a
    /// short read of a file this process just wrote is not recoverable.
    fn items_into(&self, u: UserId, buf: &mut Vec<ItemId>) {
        thread_local! {
            static BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
        buf.clear();
        BYTES.with(|bytes| {
            let mut bytes = bytes.borrow_mut();
            bytes.resize(((hi - lo) * 4) as usize, 0);
            self.file
                .read_exact_at(&mut bytes, self.items_at + lo * 4)
                .expect("reading the packed profile file");
            buf.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc::file_digest;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_datasets::synth::{StreamProfiles, SynthConfig};
    use goldfinger_knn::oocbuild::{self, OocConfig};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gfbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_source_matches_the_generator_and_its_build() {
        let mut synth = SynthConfig::ml1m().with_seed(11);
        synth.n_users = 20_000;
        let generated = StreamProfiles::new(&synth);
        let dir = scratch("packed");
        let path = dir.join("users.gfbp");
        let written = write_packed(&path, &generated).unwrap();
        let packed = PackedProfiles::open(&path).unwrap();
        assert_eq!(packed.n_users(), 20_000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for u in 0..20_000u32 {
            generated.items_into(u, &mut a);
            packed.items_into(u, &mut b);
            assert_eq!(a, b, "user {u}");
        }

        let params = ShfParams::new(256, DynHasher::default());
        let mut digests = Vec::new();
        for (i, source) in [&generated as &dyn ProfileSource, &packed]
            .into_iter()
            .enumerate()
        {
            let mut cfg = OocConfig::new(10, 2, 5, dir.join(format!("spill-{i}")));
            cfg.shards = 3;
            cfg.max_bucket = 256;
            let out = dir.join(format!("graph-{i}.gfg"));
            let stats = oocbuild::build_to_disk(source, &params, &cfg, &out).unwrap();
            assert_eq!(stats.associations, written);
            digests.push(file_digest(&out).unwrap());
        }
        assert_eq!(digests[0], digests[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_foreign_and_truncated_files() {
        let dir = scratch("foreign");
        let path = dir.join("x");
        std::fs::write(&path, b"NOPE0000000000000000").unwrap();
        assert!(PackedProfiles::open(&path).is_err());
        // A header claiming 2^60 users must not allocate their offsets.
        let mut huge = b"GFBP".to_vec();
        huge.extend((1u64 << 60).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(PackedProfiles::open(&path).is_err());
        // Offsets pointing past the end of the items.
        let store = ProfileStore::from_item_lists(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        write_packed(&path, &store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(PackedProfiles::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
