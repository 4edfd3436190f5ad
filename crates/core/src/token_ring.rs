//! The last `T` token rows of one access stream.
//!
//! Request `n + 1` of a stream shares `T - 1` of its `T` window tokens
//! with request `n`, and a token's [`TokenRows`] row depends on that token
//! alone. [`TokenRing`] is where a stream keeps those rows between
//! requests, so each access costs one [`TabularModel::encode_tokens`] row
//! instead of `T`. Each [`crate::StreamState`] holds one, and
//! [`crate::StreamEngine::step`] — what both `DartPrefetcher` and the
//! serving runtime run — keeps it current.
//!
//! [`TabularModel::encode_tokens`]: crate::TabularModel::encode_tokens

use crate::tabular_model::TokenRows;

/// A flat ring of the most recent `seq_len` token rows: one `f32` buffer of
/// `seq_len` slots of `[hidden | value]` and one `u16` buffer of `seq_len`
/// slots of Q / K codes. Empty and unallocated until the first
/// [`Self::push`]; sized by what is pushed.
///
/// The rows are only as current as the model that encoded them: the owner
/// [`Self::clear`]s the ring when the model changes and pushes the
/// history's rows again.
#[derive(Clone, Debug, Default)]
pub struct TokenRing {
    rows: Vec<f32>,
    codes: Vec<u16>,
    /// `(seq_len, hidden cols, value cols, codes per row)` the buffers are
    /// sized for.
    shape: (usize, usize, usize, usize),
    /// Slot the next push writes.
    head: usize,
    len: usize,
}

impl TokenRing {
    /// Rows held (at most `seq_len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no row is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Append row `r` of `tokens` as the newest token of a `seq_len`-token
    /// window, dropping the oldest once `seq_len` rows are held. Rows of a
    /// different shape than the ones held (another model's) restart the
    /// ring.
    pub fn push(&mut self, seq_len: usize, tokens: &TokenRows, r: usize) {
        let (hidden, value) = (tokens.hidden.row(r), tokens.value.row(r));
        let width = tokens.code_width;
        let shape = (seq_len, hidden.len(), value.len(), width);
        if shape != self.shape {
            self.shape = shape;
            self.rows = vec![0.0; seq_len * (hidden.len() + value.len())];
            self.codes = vec![0; seq_len * width];
            self.clear();
        }
        let slot = &mut self.rows[self.head * (hidden.len() + value.len())..];
        slot[..hidden.len()].copy_from_slice(hidden);
        slot[hidden.len()..hidden.len() + value.len()].copy_from_slice(value);
        self.codes[self.head * width..(self.head + 1) * width]
            .copy_from_slice(&tokens.qk_codes[r * width..(r + 1) * width]);
        self.head = (self.head + 1) % seq_len;
        self.len = (self.len + 1).min(seq_len);
    }

    /// Copy the full window, oldest token first, into rows
    /// `[w * seq_len, (w + 1) * seq_len)` of `dst` (stacked windows for
    /// [`crate::TabularModel::predict_tokens`]). Panics unless `seq_len`
    /// rows are held and `dst` has their shape.
    pub fn write_window(&self, dst: &mut TokenRows, w: usize) {
        let (seq_len, hidden, value, width) = self.shape;
        assert_eq!(self.len, seq_len, "write_window on a ring that is not full");
        let got = (dst.hidden.cols(), dst.value.cols(), dst.code_width);
        assert_eq!(got, (hidden, value, width), "window shape mismatch");
        // A full ring's oldest row is the one the next push overwrites.
        for age in 0..seq_len {
            let slot = (self.head + age) % seq_len;
            let row = w * seq_len + age;
            let src = &self.rows[slot * (hidden + value)..(slot + 1) * (hidden + value)];
            dst.hidden.row_mut(row).copy_from_slice(&src[..hidden]);
            dst.value.row_mut(row).copy_from_slice(&src[hidden..]);
            dst.qk_codes[row * width..(row + 1) * width]
                .copy_from_slice(&self.codes[slot * width..(slot + 1) * width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_nn::matrix::Matrix;

    /// `rows` token rows whose every entry names its row.
    fn numbered(rows: usize, dim: usize, width: usize) -> TokenRows {
        TokenRows {
            hidden: Matrix::from_fn(rows, dim, |r, c| (r * 100 + c) as f32),
            value: Matrix::from_fn(rows, dim, |r, c| -((r * 100 + c) as f32)),
            qk_codes: (0..rows * width).map(|i| i as u16).collect(),
            code_width: width,
        }
    }

    fn window_of(ring: &TokenRing, like: &TokenRows, seq_len: usize) -> TokenRows {
        let mut dst = like.clone();
        dst.resize_rows(2 * seq_len);
        ring.write_window(&mut dst, 1);
        TokenRows {
            hidden: dst.hidden.slice_rows(seq_len, 2 * seq_len),
            value: dst.value.slice_rows(seq_len, 2 * seq_len),
            qk_codes: dst.qk_codes[seq_len * like.code_width..].to_vec(),
            code_width: like.code_width,
        }
    }

    #[test]
    fn window_is_the_last_seq_len_rows_oldest_first() {
        let src = numbered(11, 3, 4);
        let mut ring = TokenRing::default();
        for r in 0..11 {
            ring.push(4, &src, r);
            assert_eq!(ring.len(), (r + 1).min(4));
            if r >= 3 {
                let got = window_of(&ring, &src, 4);
                assert_eq!(got.hidden, src.hidden.slice_rows(r - 3, r + 1));
                assert_eq!(got.value, src.value.slice_rows(r - 3, r + 1));
                assert_eq!(got.qk_codes, src.qk_codes[(r - 3) * 4..(r + 1) * 4]);
            }
        }
    }

    #[test]
    fn clear_and_reshape_restart_the_window() {
        let src = numbered(8, 3, 4);
        let mut ring = TokenRing::default();
        for r in 0..6 {
            ring.push(4, &src, r);
        }
        ring.clear();
        assert!(ring.is_empty());
        for r in 2..6 {
            ring.push(4, &src, r);
        }
        assert_eq!(window_of(&ring, &src, 4).hidden, src.hidden.slice_rows(2, 6));
        // Rows of another shape cannot join the window they find.
        let wide = numbered(8, 5, 2);
        ring.push(4, &wide, 0);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not full")]
    fn short_ring_has_no_window() {
        let src = numbered(4, 3, 4);
        let mut ring = TokenRing::default();
        ring.push(4, &src, 0);
        window_of(&ring, &src, 4);
    }
}
