//! Per-connection latency accounting for the daemon workloads.
//!
//! Times are seconds since the run's epoch. A frame is acknowledged by
//! the first `Progress` whose sample count reaches the frame's
//! cumulative watermark (replies are in order, so the match is exact),
//! and its latency counts from the frame's *due* time. In the open loop
//! the due time is the schedule slot, so a stall charges the stalled
//! frame and every frame queued behind it; in the closed loop it is the
//! send time.
//!
//! A `RefitDelta` carries the vector count its snapshot covered. The
//! daemon takes that snapshot right after acknowledging the frame that
//! made the refit due, so the refit is matched to the first frame whose
//! `Progress` reported at least that many vectors, and its latency also
//! counts from that frame's due time.

#[derive(Debug, Clone)]
pub struct AckBook {
    due: Vec<f64>,
    marks: Vec<u64>,
    vectors: Vec<u64>,
    acked: usize,
    pub ack_ms: Vec<f64>,
    pub refit_ms: Vec<f64>,
    pub refits_unmatched: u64,
}

impl AckBook {
    /// `due[i]` is frame `i`'s due time, `marks[i]` the cumulative
    /// samples once frame `i` is in.
    pub fn new(due: Vec<f64>, marks: Vec<u64>) -> Self {
        assert_eq!(due.len(), marks.len(), "one due time per frame");
        Self {
            vectors: vec![0; due.len()],
            due,
            marks,
            acked: 0,
            ack_ms: Vec::new(),
            refit_ms: Vec::new(),
            refits_unmatched: 0,
        }
    }

    /// Sets frame `i`'s due time (closed loop: when it was sent).
    pub fn set_due(&mut self, i: usize, at: f64) {
        self.due[i] = at;
    }

    pub fn frames(&self) -> usize {
        self.due.len()
    }

    pub fn acked(&self) -> usize {
        self.acked
    }

    pub fn unacked(&self) -> usize {
        self.due.len() - self.acked
    }

    /// A `Progress` reporting `samples` and `vectors`, received at `at`.
    pub fn on_progress(&mut self, samples: u64, vectors: u64, at: f64) {
        while self.acked < self.marks.len() && self.marks[self.acked] <= samples {
            self.ack_ms.push((at - self.due[self.acked]) * 1e3);
            self.vectors[self.acked] = vectors;
            self.acked += 1;
        }
    }

    /// A `RefitDelta` covering `vectors` vectors, received at `at`.
    pub fn on_refit(&mut self, vectors: u64, at: f64) {
        let i = self.vectors[..self.acked].partition_point(|&v| v < vectors);
        if i < self.acked {
            self.refit_ms.push((at - self.due[i]) * 1e3);
        } else {
            self.refits_unmatched += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> AckBook {
        // Four 500-sample frames due every 10 ms.
        AckBook::new(vec![0.0, 0.010, 0.020, 0.030], vec![500, 1000, 1500, 2000])
    }

    #[test]
    fn a_stall_charges_the_stalled_frame_and_the_frames_behind_it() {
        let mut b = book();
        b.on_progress(500, 5, 0.002);
        // Frame 1 stalls in the daemon; frames 2 and 3 queue behind it
        // and all three are acknowledged together at 50 ms.
        b.on_progress(2000, 20, 0.050);
        let ms: Vec<i64> = b.ack_ms.iter().map(|m| m.round() as i64).collect();
        assert_eq!(ms, vec![2, 40, 30, 20]);
        assert_eq!(b.unacked(), 0);
    }

    #[test]
    fn partial_progress_acknowledges_only_covered_frames() {
        let mut b = book();
        b.on_progress(999, 9, 0.015);
        assert_eq!(b.acked(), 1);
        assert_eq!(b.unacked(), 3);
    }

    #[test]
    fn refits_match_the_frame_whose_progress_reached_their_vectors() {
        let mut b = book();
        b.on_progress(500, 5, 0.001);
        b.on_progress(1000, 10, 0.011);
        b.on_progress(1500, 15, 0.021);
        // A refit over 10 vectors was made due by frame 1 (due 10 ms).
        b.on_refit(10, 0.040);
        // A coalesced refit ran later over 12 vectors: frame 2 was the
        // first whose Progress covered them.
        b.on_refit(12, 0.045);
        // Nothing acknowledged has 16 vectors yet.
        b.on_refit(16, 0.050);
        let ms: Vec<i64> = b.refit_ms.iter().map(|m| m.round() as i64).collect();
        assert_eq!(ms, vec![30, 25]);
        assert_eq!(b.refits_unmatched, 1);
    }
}
