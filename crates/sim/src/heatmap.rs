//! Instruction-access heat maps (Figure 7).

/// A time x address histogram of instruction fetches over the text
/// segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HeatMap {
    /// First text address covered.
    pub addr_start: u64,
    /// One past the last text address covered.
    pub addr_end: u64,
    /// Number of time buckets (columns).
    pub time_buckets: usize,
    /// Number of address buckets (rows).
    pub addr_buckets: usize,
    /// Row-major counts: `cells[row * time_buckets + col]`.
    pub cells: Vec<u64>,
    total_events: u64,
    events_per_column: u64,
}

impl HeatMap {
    /// Creates an empty heat map over `[addr_start, addr_end)` with the
    /// given resolution, expecting roughly `expected_events` fetch
    /// events (used to spread them across time columns).
    pub fn new(
        addr_start: u64,
        addr_end: u64,
        addr_buckets: usize,
        time_buckets: usize,
        expected_events: u64,
    ) -> Self {
        assert!(addr_end > addr_start);
        assert!(addr_buckets > 0 && time_buckets > 0);
        HeatMap {
            addr_start,
            addr_end,
            time_buckets,
            addr_buckets,
            cells: vec![0; addr_buckets * time_buckets],
            total_events: 0,
            events_per_column: (expected_events / time_buckets as u64).max(1),
        }
    }

    /// Records one instruction fetch at `addr`.
    pub fn record(&mut self, addr: u64) {
        if addr < self.addr_start || addr >= self.addr_end {
            return;
        }
        let span = self.addr_end - self.addr_start;
        let row = ((addr - self.addr_start) * self.addr_buckets as u64 / span) as usize;
        let col =
            ((self.total_events / self.events_per_column) as usize).min(self.time_buckets - 1);
        self.cells[row * self.time_buckets + col] += 1;
        self.total_events += 1;
    }

    /// The count at `(addr bucket row, time bucket col)`.
    pub fn cell(&self, row: usize, col: usize) -> u64 {
        self.cells[row * self.time_buckets + col]
    }

    /// Number of address rows with any activity — the "band height" of
    /// Figure 7: tighter layouts touch fewer rows.
    pub fn active_rows(&self) -> usize {
        (0..self.addr_buckets)
            .filter(|&r| (0..self.time_buckets).any(|c| self.cell(r, c) > 0))
            .count()
    }

    /// Renders an ASCII art heat map (rows = addresses, top = low).
    pub fn render_ascii(&self) -> String {
        let max = self.cells.iter().copied().max().unwrap_or(0).max(1);
        let shades = [' ', '.', ':', '+', '*', '#'];
        let mut out = String::new();
        for r in 0..self.addr_buckets {
            for c in 0..self.time_buckets {
                let v = self.cell(r, c);
                let idx = if v == 0 {
                    0
                } else {
                    1 + ((v * (shades.len() as u64 - 2)) / max) as usize
                };
                out.push(shades[idx.min(shades.len() - 1)]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_buckets() {
        let mut h = HeatMap::new(0x1000, 0x2000, 4, 2, 4);
        h.record(0x1000); // row 0, col 0
        h.record(0x1FFF); // row 3, col 0
        h.record(0x1800); // row 2, col 1
        assert_eq!(h.cell(0, 0), 1);
        assert_eq!(h.cell(3, 0), 1);
        assert_eq!(h.cell(2, 1), 1);
        assert_eq!(h.active_rows(), 3);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut h = HeatMap::new(0x1000, 0x2000, 4, 4, 10);
        h.record(0x0FFF);
        h.record(0x2000);
        assert_eq!(h.active_rows(), 0);
    }

    #[test]
    fn ascii_rendering_shape() {
        let mut h = HeatMap::new(0, 100, 3, 5, 5);
        h.record(10);
        let art = h.render_ascii();
        assert_eq!(art.lines().count(), 3);
        assert!(art.lines().all(|l| l.len() == 5));
        assert!(art.contains(|c| c != ' ' && c != '\n'));
    }

    #[test]
    fn columns_advance_with_time() {
        let mut h = HeatMap::new(0, 64, 1, 4, 8);
        for _ in 0..8 {
            h.record(0);
        }
        // 2 events per column.
        for c in 0..4 {
            assert_eq!(h.cell(0, c), 2);
        }
    }
}
