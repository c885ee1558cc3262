//! Sparse in-memory sector store.
//!
//! A simulated disk can be multiple gigabytes; most experiments touch a small
//! fraction of it. Sectors are stored in lazily allocated fixed-size pages so
//! memory scales with the non-zero footprint, not the disk capacity.
//!
//! The invariant: an unallocated page reads zero, and a page is allocated
//! only by a write carrying a non-zero byte into it. Unwritten sectors read
//! back as zeroes, like a freshly formatted drive, and a run of zeros aimed
//! at an unallocated page (a format invalidating every segment summary or
//! zeroing a table) leaves it unallocated. An allocated page stays
//! allocated and is overwritten as usual, zeros included. So every
//! unallocated page is zero, and the allocated pages are a "may be
//! non-zero" mask of the medium that costs no scan.

use crate::geometry::SECTOR_SIZE;

/// Sectors per page: 128 sectors = 64 KiB pages.
const SECTORS_PER_PAGE: u64 = 128;
pub(crate) const PAGE_BYTES: usize = SECTORS_PER_PAGE as usize * SECTOR_SIZE;

/// An unwritten page, for telling zero pages apart with one `memcmp`.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// Whether `chunk` (at most a page) is all zero.
fn is_zero(chunk: &[u8]) -> bool {
    chunk == &ZERO_PAGE[..chunk.len()]
}

/// Lazily allocated sector array: only pages that were written a non-zero
/// byte hold memory (see the module docs).
#[derive(Debug)]
pub struct SparseStore {
    pages: Vec<Option<Box<[u8]>>>,
    total_sectors: u64,
}

impl SparseStore {
    /// Creates a store for `total_sectors` sectors, initially all zero.
    pub fn new(total_sectors: u64) -> Self {
        let npages = total_sectors.div_ceil(SECTORS_PER_PAGE) as usize;
        Self {
            pages: (0..npages).map(|_| None).collect(),
            total_sectors,
        }
    }

    /// Number of addressable sectors.
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Bytes of memory currently committed to page storage.
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE_BYTES
    }

    /// Per page: is it allocated? By the store's invariant this is a "may
    /// hold a non-zero byte" mask: a `false` page reads zero.
    pub(crate) fn allocated_pages(&self) -> Vec<bool> {
        self.pages.iter().map(Option::is_some).collect()
    }

    /// Copies the entire sector array into one contiguous buffer
    /// (`total_sectors * SECTOR_SIZE` bytes, unwritten sectors zero) — the
    /// raw disk image, for offline analysis tools.
    pub fn snapshot(&self) -> Vec<u8> {
        let total = self.total_sectors as usize * SECTOR_SIZE;
        let mut out = vec![0u8; total];
        for (i, page) in self.pages.iter().enumerate() {
            if let Some(data) = page {
                let start = i * PAGE_BYTES;
                let end = (start + PAGE_BYTES).min(total);
                out[start..end].copy_from_slice(&data[..end - start]);
            }
        }
        out
    }

    /// Restores the sector array from a contiguous image previously
    /// captured with [`snapshot`](Self::snapshot). All-zero pages stay
    /// unallocated, so sparsity survives a snapshot/load round trip.
    /// Pages that `maybe_nonzero` rules out must be zero in `image`: they
    /// are left unallocated without being read.
    ///
    /// # Panics
    ///
    /// Panics if the image is not a whole number of pages covering exactly
    /// this store's capacity (i.e. anything but a [`snapshot`](Self::snapshot)
    /// of an identically-sized store).
    pub fn load(&mut self, image: &[u8], maybe_nonzero: impl Fn(usize) -> bool) {
        self.check_image(image);
        for (i, chunk) in image.chunks(PAGE_BYTES).enumerate() {
            self.pages[i] = if !maybe_nonzero(i) || is_zero(chunk) {
                None
            } else if chunk.len() == PAGE_BYTES {
                Some(chunk.into())
            } else {
                let mut page = vec![0u8; PAGE_BYTES].into_boxed_slice();
                page[..chunk.len()].copy_from_slice(chunk);
                Some(page)
            };
        }
    }

    /// Writes this store's contents over `image`, a buffer the size of a
    /// [`snapshot`](Self::snapshot), on every page where the two may
    /// differ: each allocated page, and each unallocated page that
    /// `maybe_nonzero` does not rule out (zeroed). `save` is handed each
    /// such page's old bytes before it is overwritten, so the caller can
    /// put them back.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match this store's capacity.
    pub fn overlay(
        &self,
        image: &mut [u8],
        maybe_nonzero: impl Fn(usize) -> bool,
        mut save: impl FnMut(usize, &[u8]),
    ) {
        self.check_image(image);
        for (i, chunk) in image.chunks_mut(PAGE_BYTES).enumerate() {
            match &self.pages[i] {
                Some(page) => {
                    save(i, chunk);
                    chunk.copy_from_slice(&page[..chunk.len()]);
                }
                None if maybe_nonzero(i) => {
                    save(i, chunk);
                    chunk.fill(0);
                }
                None => {}
            }
        }
    }

    fn check_image(&self, image: &[u8]) {
        assert_eq!(
            image.len(),
            self.total_sectors as usize * SECTOR_SIZE,
            "image size must match device capacity"
        );
    }

    /// Reads `buf.len() / SECTOR_SIZE` consecutive sectors starting at
    /// `sector` into `buf`, one page-contiguous piece at a time.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past the end of the store or `buf` is not
    /// a whole number of sectors; the device front-end validates
    /// user-facing ranges before calling.
    pub fn read_run(&self, sector: u64, buf: &mut [u8]) {
        self.check_run(sector, buf.len());
        let mut sector = sector;
        let mut rest = buf;
        while !rest.is_empty() {
            let (page, offset) = Self::locate(sector);
            let n = (PAGE_BYTES - offset).min(rest.len());
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match &self.pages[page] {
                Some(data) => piece.copy_from_slice(&data[offset..offset + piece.len()]),
                None => piece.fill(0),
            }
            sector += (piece.len() / SECTOR_SIZE) as u64;
            rest = tail;
        }
    }

    /// Writes `data.len() / SECTOR_SIZE` consecutive sectors starting at
    /// `sector`, one page-contiguous piece at a time. A page the run
    /// covers whole is built straight from `data`, never zero-filled first,
    /// and an all-zero piece aimed at an unallocated page is dropped: the
    /// page already reads zero.
    ///
    /// # Panics
    ///
    /// Panics if the run reaches past the end of the store or `data` is not
    /// a whole number of sectors.
    pub fn write_run(&mut self, sector: u64, data: &[u8]) {
        self.check_run(sector, data.len());
        let mut sector = sector;
        let mut rest = data;
        while !rest.is_empty() {
            let (page, offset) = Self::locate(sector);
            let n = (PAGE_BYTES - offset).min(rest.len());
            let (piece, tail) = rest.split_at(n);
            match &mut self.pages[page] {
                Some(p) => p[offset..offset + piece.len()].copy_from_slice(piece),
                None if is_zero(piece) => {}
                slot @ None if piece.len() == PAGE_BYTES => *slot = Some(piece.into()),
                slot @ None => {
                    let mut p = vec![0u8; PAGE_BYTES].into_boxed_slice();
                    p[offset..offset + piece.len()].copy_from_slice(piece);
                    *slot = Some(p);
                }
            }
            sector += (piece.len() / SECTOR_SIZE) as u64;
            rest = tail;
        }
    }

    fn check_run(&self, sector: u64, len: usize) {
        assert_eq!(
            len % SECTOR_SIZE,
            0,
            "run of {len} bytes is not whole sectors"
        );
        let count = (len / SECTOR_SIZE) as u64;
        assert!(
            sector
                .checked_add(count)
                .is_some_and(|end| end <= self.total_sectors),
            "sectors {sector}..+{count} out of range"
        );
    }

    fn locate(sector: u64) -> (usize, usize) {
        let page = (sector / SECTORS_PER_PAGE) as usize;
        let offset = (sector % SECTORS_PER_PAGE) as usize * SECTOR_SIZE;
        (page, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_sectors_read_zero() {
        let store = SparseStore::new(1000);
        let mut buf = [0xAAu8; SECTOR_SIZE];
        store.read_run(999, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut store = SparseStore::new(10_000);
        let mut data = [0u8; SECTOR_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        store.write_run(4242, &data);
        let mut buf = [0u8; SECTOR_SIZE];
        store.read_run(4242, &mut buf);
        assert_eq!(buf, data);
        // Neighbouring sector in the same page is untouched.
        store.read_run(4243, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn memory_scales_with_touched_pages_not_capacity() {
        // 1 GiB disk, touch two far-apart sectors: two pages resident.
        let mut store = SparseStore::new((1 << 30) / SECTOR_SIZE as u64);
        let data = [1u8; SECTOR_SIZE];
        store.write_run(0, &data);
        store.write_run(store.total_sectors() - 1, &data);
        assert_eq!(store.resident_bytes(), 2 * PAGE_BYTES);
    }

    #[test]
    fn zero_runs_allocate_nothing_and_still_overwrite() {
        let mut store = SparseStore::new(4 * SECTORS_PER_PAGE);
        // Zeros into unallocated pages, a whole page and pieces of two.
        store.write_run(0, &[0u8; PAGE_BYTES]);
        store.write_run(SECTORS_PER_PAGE + 100, &[0u8; 60 * SECTOR_SIZE]);
        assert_eq!(store.resident_bytes(), 0);
        // A run across three pages with non-zero bytes only in the middle
        // one allocates that page alone.
        let mut run = vec![0u8; (SECTORS_PER_PAGE as usize + 20) * SECTOR_SIZE];
        run[20 * SECTOR_SIZE] = 5;
        store.write_run(SECTORS_PER_PAGE - 10, &run);
        assert_eq!(store.allocated_pages(), [false, true, false, false]);
        let mut model = vec![0u8; 4 * PAGE_BYTES];
        model[(SECTORS_PER_PAGE as usize + 10) * SECTOR_SIZE] = 5;
        assert_eq!(store.snapshot(), model);
        // Zeros over an allocated page still land and read back zero.
        store.write_run(SECTORS_PER_PAGE + 10, &[0u8; SECTOR_SIZE]);
        let mut buf = [0xAAu8; SECTOR_SIZE];
        store.read_run(SECTORS_PER_PAGE + 10, &mut buf);
        assert_eq!(buf, [0u8; SECTOR_SIZE]);
        assert_eq!(store.snapshot(), vec![0u8; 4 * PAGE_BYTES]);
        assert_eq!(store.resident_bytes(), PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut store = SparseStore::new(8);
        store.write_run(8, &[0u8; SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_reaching_past_the_end_panics() {
        let store = SparseStore::new(8);
        store.read_run(6, &mut [0u8; 3 * SECTOR_SIZE]);
    }

    #[test]
    fn runs_cross_pages_like_single_sectors() {
        // Three pages and a bit: runs that start mid-page, cover a page
        // whole, and end mid-page, checked against a flat byte model.
        let total = 3 * SECTORS_PER_PAGE + 5;
        let mut store = SparseStore::new(total);
        let mut model = vec![0u8; total as usize * SECTOR_SIZE];
        let runs = [
            (120u64, 140u64, 1u8),
            (3, 2, 2),
            (2 * SECTORS_PER_PAGE + 7, 126, 3),
        ];
        for (sector, count, seed) in runs {
            let data: Vec<u8> = (0..count as usize * SECTOR_SIZE)
                .map(|i| seed.wrapping_add(i as u8))
                .collect();
            store.write_run(sector, &data);
            let at = sector as usize * SECTOR_SIZE;
            model[at..at + data.len()].copy_from_slice(&data);
        }
        assert_eq!(store.snapshot(), model);
        let mut buf = vec![0xAAu8; 300 * SECTOR_SIZE];
        store.read_run(50, &mut buf);
        assert_eq!(buf, model[50 * SECTOR_SIZE..350 * SECTOR_SIZE]);
        // An empty run touches nothing.
        store.read_run(total, &mut []);
        assert_eq!(store.resident_bytes(), 4 * PAGE_BYTES);
        // A load round-trips, the short last page included, and keeps
        // zero pages unallocated.
        let mut copy = SparseStore::new(total);
        copy.write_run(SECTORS_PER_PAGE + 1, &[9u8; SECTOR_SIZE]);
        copy.load(&model, |_| true);
        assert_eq!(copy.snapshot(), model);
        assert_eq!(copy.resident_bytes(), 4 * PAGE_BYTES);
        model[..3 * PAGE_BYTES].fill(0);
        copy.load(&model, |_| true);
        assert_eq!(copy.resident_bytes(), PAGE_BYTES);
    }
}
