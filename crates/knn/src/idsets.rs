//! Per-row id sets packed into one array (CSR): the flat layout behind
//! KIFF's item index and NNDescent's per-iteration join plans, built
//! without a `Vec` per row.

/// One id set per row: row `r`'s set is `ids[offsets[r]..offsets[r + 1]]`.
pub(crate) struct IdSets {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl IdSets {
    /// No rows yet, with room for `ids` ids over `rows` rows.
    pub(crate) fn with_capacity(rows: usize, ids: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        IdSets {
            offsets,
            ids: Vec::with_capacity(ids),
        }
    }

    /// The inverted sets over `bound` rows: row `v` holds, in ascending
    /// order, every `r` whose set in `rows` holds `v`. A counting sort, so
    /// each inverted set lists its rows in the order a per-row push loop
    /// would.
    ///
    /// # Panics
    /// Panics if a set holds an id `>= bound`, or on 2^32 ids or more.
    pub(crate) fn inverted<'a, I>(rows: I, bound: usize) -> IdSets
    where
        I: Iterator<Item = &'a [u32]> + Clone,
    {
        let total: usize = rows.clone().map(<[u32]>::len).sum();
        u32::try_from(total).expect("id sets hold fewer than 2^32 ids");
        let mut offsets = vec![0u32; bound + 1];
        for &v in rows.clone().flatten() {
            offsets[v as usize + 1] += 1;
        }
        for v in 0..bound {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..bound].to_vec();
        let mut ids = vec![0u32; offsets[bound] as usize];
        for (r, set) in rows.enumerate() {
            for &v in set {
                let c = &mut cursor[v as usize];
                ids[*c as usize] = r as u32;
                *c += 1;
            }
        }
        IdSets { offsets, ids }
    }

    pub(crate) fn get(&self, r: usize) -> &[u32] {
        &self.ids[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    pub(crate) fn get_mut(&mut self, r: usize) -> &mut [u32] {
        &mut self.ids[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Appends `id` to the row being built.
    pub(crate) fn push(&mut self, id: u32) {
        self.ids.push(id);
    }

    /// Appends `ids` to the row being built.
    pub(crate) fn extend_from_slice(&mut self, ids: &[u32]) {
        self.ids.extend_from_slice(ids);
    }

    /// Ends the row being built.
    ///
    /// # Panics
    /// Panics once the sets hold 2^32 ids or more.
    pub(crate) fn close(&mut self) {
        let end = u32::try_from(self.ids.len()).expect("id sets hold fewer than 2^32 ids");
        self.offsets.push(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverted_lists_rows_in_ascending_order() {
        let mut sets = IdSets::with_capacity(3, 5);
        for row in [&[2u32, 0][..], &[], &[0, 1, 2]] {
            sets.extend_from_slice(row);
            sets.close();
        }
        assert_eq!(sets.get(0), &[2, 0]);
        assert!(sets.get(1).is_empty());
        let inv = IdSets::inverted((0..3).map(|r| sets.get(r)), 4);
        assert_eq!(inv.get(0), &[0, 2]);
        assert_eq!(inv.get(1), &[2]);
        assert_eq!(inv.get(2), &[0, 2]);
        assert!(inv.get(3).is_empty());
    }
}
