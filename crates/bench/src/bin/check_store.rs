//! CI gate for fingerprint store files: reopens each given file by reading
//! it onto the heap and, on Linux, by mapping it in place, and requires
//! each reopened store to write back the file's exact bytes (width, hasher,
//! cardinalities and rows). Prints one line per file; exits non-zero on
//! any failure.
//!
//! ```text
//! goldfinger fingerprint --synth dblp --scale 0.01 --bits 256 --out results/fp.store
//! cargo run --release -p goldfinger-bench --bin check_store -- results/fp.store
//! ```

use goldfinger_core::serial::{read_store, write_store};
use goldfinger_core::shf::ShfStore;

fn reopen(path: &str) -> Result<ShfStore, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let mut stores = vec![read_store(&mut bytes.as_slice()).map_err(|e| e.to_string())?];
    #[cfg(target_os = "linux")]
    stores.push(ShfStore::open_spilled(path.as_ref()).map_err(|e| e.to_string())?);
    for store in &stores {
        let mut written = Vec::new();
        write_store(store, &mut written).map_err(|e| e.to_string())?;
        if written != bytes {
            return Err(format!("a reopened {} store differs", store.backend_kind()));
        }
    }
    Ok(stores.swap_remove(0))
}

fn main() {
    let mut failed = false;
    for path in std::env::args().skip(1) {
        match reopen(&path) {
            Ok(s) => println!("{path}: ok, {} users, {:?}", s.len(), s.params()),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
