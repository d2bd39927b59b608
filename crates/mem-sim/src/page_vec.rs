//! Per-page host state sized by the pages a run reaches, not by capacity.

use crate::PageId;

/// One `T` per page of a region of `pages` pages, stored only for pages
/// `0..=` the highest one written so far.
///
/// A page past that prefix reads as `empty`, the value every page starts
/// with, and the first write to one grows the prefix up to it, so the host
/// memory behind the array follows the pages a run reaches. Sized by
/// capacity, an array whose empty value is not all-zero bytes is written
/// in full at construction; and under glibc even a zeroed one is made
/// resident when it is small enough to come from recycled heap (DESIGN.md,
/// "Per-page state follows the pages reached").
///
/// # Examples
///
/// ```
/// use mem_sim::{PageId, PageVec};
///
/// let mut stamps = PageVec::new(1024, u64::MAX);
/// assert_eq!(stamps.get(PageId(900)), u64::MAX);
/// *stamps.get_mut(PageId(3)) = 7;
/// assert_eq!(stamps.get(PageId(3)), 7);
/// stamps.clear();
/// assert_eq!(stamps.get(PageId(3)), u64::MAX);
/// ```
#[derive(Debug, Clone)]
pub struct PageVec<T> {
    reached: Vec<T>,
    pages: usize,
    empty: T,
}

impl<T: Copy> PageVec<T> {
    /// An array over `pages` pages, each of them `empty`, holding none.
    pub fn new(pages: usize, empty: T) -> Self {
        PageVec {
            reached: Vec::new(),
            pages,
            empty,
        }
    }

    /// `page`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn get(&self, page: PageId) -> T {
        match self.reached.get(page.index()) {
            Some(&value) => value,
            None => self.unreached(page),
        }
    }

    /// `page`'s value, writable: the prefix grows up to `page` first if it
    /// does not reach it.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn get_mut(&mut self, page: PageId) -> &mut T {
        let i = page.index();
        if i < self.reached.len() {
            &mut self.reached[i]
        } else {
            self.grow(page)
        }
    }

    /// The values of pages `0..n`, where page `n - 1` is the highest one
    /// written since construction or the last [`PageVec::clear`]; every
    /// page past them is `empty`.
    pub(crate) fn reached(&self) -> &[T] {
        &self.reached
    }

    /// Returns every page to `empty`. The allocation is kept.
    pub fn clear(&mut self) {
        self.reached.clear();
    }

    #[cold]
    #[inline(never)]
    fn unreached(&self, page: PageId) -> T {
        self.check(page);
        self.empty
    }

    /// Extends the prefix to end at `page`; `Vec` amortises the growth.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, page: PageId) -> &mut T {
        self.check(page);
        self.reached.resize(page.index() + 1, self.empty);
        &mut self.reached[page.index()]
    }

    fn check(&self, page: PageId) {
        assert!(
            page.index() < self.pages,
            "{page} is out of range of {} pages",
            self.pages
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_past_the_prefix_grows_it_to_that_page_only() {
        let mut v = PageVec::new(8, 0u8);
        *v.get_mut(PageId(5)) = 1;
        assert_eq!(v.reached(), [0, 0, 0, 0, 0, 1]);
        *v.get_mut(PageId(2)) = 2;
        assert_eq!(v.reached().len(), 6, "a write inside it grows nothing");
        assert_eq!((v.get(PageId(2)), v.get(PageId(7))), (2, 0));
    }

    #[test]
    #[should_panic(expected = "page#8 is out of range of 8 pages")]
    fn a_read_past_the_capacity_panics() {
        PageVec::new(8, 0u8).get(PageId(8));
    }

    #[test]
    #[should_panic(expected = "page#8 is out of range of 8 pages")]
    fn a_write_past_the_capacity_panics() {
        *PageVec::new(8, 0u8).get_mut(PageId(8)) = 1;
    }
}
