//! Assessment-design statistics.
//!
//! The paper justifies three-option multiple-choice questions by citing the
//! educational-measurement literature: three options balance "the quality
//! [of] multiple choice questions against devaluing the assessment of the
//! student's knowledge". This module provides the quantities needed to
//! reproduce that trade-off as an experiment (DESIGN.md E-S3): the guessing
//! floor, the expected score of a student with partial knowledge, and the
//! discrimination between a knowledgeable and a guessing student.

/// A multiple-choice assessment design: how many options per question and how
/// many questions per assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssessmentDesign {
    /// Options per question (the paper uses 3; the comparison uses 4).
    pub options_per_question: usize,
    /// Number of questions in the assessment.
    pub question_count: usize,
}

impl AssessmentDesign {
    /// Probability of answering one question correctly by pure guessing.
    pub fn guessing_floor(&self) -> f64 {
        1.0 / self.options_per_question as f64
    }

    /// Expected proportion correct for a student who *knows* each answer with
    /// probability `knowledge` and guesses uniformly otherwise.
    pub fn expected_score(&self, knowledge: f64) -> f64 {
        let k = knowledge.clamp(0.0, 1.0);
        k + (1.0 - k) * self.guessing_floor()
    }

    /// The separation between a student with `knowledge` and a pure guesser,
    /// in expected-score units. Larger is better for assessment value.
    pub fn discrimination(&self, knowledge: f64) -> f64 {
        self.expected_score(knowledge) - self.guessing_floor()
    }

    /// Standard deviation of the observed proportion-correct for a student of
    /// given `knowledge`, across the whole assessment (binomial model).
    pub fn score_stddev(&self, knowledge: f64) -> f64 {
        let p = self.expected_score(knowledge);
        (p * (1.0 - p) / self.question_count as f64).sqrt()
    }

    /// A z-like statistic: how many standard deviations the expected score of a
    /// `knowledge` student sits above the guessing floor. This is the
    /// "assessment value" axis of the option-count trade-off; the "question
    /// quality" axis is that writing a third good distractor is much easier
    /// than writing a fourth (modelled in `tw-sim`).
    pub fn separation_z(&self, knowledge: f64) -> f64 {
        let sd = self.score_stddev(knowledge);
        if sd == 0.0 {
            f64::INFINITY
        } else {
            self.discrimination(knowledge) / sd
        }
    }
}

/// Descriptive statistics of a set of observed assessment scores.
#[derive(Debug, Clone, PartialEq)]
pub struct AssessmentStats {
    /// Number of scores.
    pub count: usize,
    /// Mean proportion correct.
    pub mean: f64,
    /// Standard deviation of the proportion correct.
    pub stddev: f64,
    /// Minimum observed score.
    pub min: f64,
    /// Maximum observed score.
    pub max: f64,
}

impl AssessmentStats {
    /// Compute statistics over observed proportion-correct scores.
    pub fn from_scores(scores: &[f64]) -> Option<Self> {
        if scores.is_empty() {
            return None;
        }
        let count = scores.len();
        let mean = scores.iter().sum::<f64>() / count as f64;
        let variance = scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(AssessmentStats {
            count,
            mean,
            stddev: variance.sqrt(),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A design with `options` answers per question.
    fn design(options: usize, question_count: usize) -> AssessmentDesign {
        AssessmentDesign {
            options_per_question: options,
            question_count,
        }
    }

    #[test]
    fn guessing_floors() {
        assert!((design(3, 10).guessing_floor() - 1.0 / 3.0).abs() < 1e-12);
        assert!((design(4, 10).guessing_floor() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn expected_score_interpolates_between_floor_and_one() {
        let d = design(3, 20);
        assert!((d.expected_score(0.0) - d.guessing_floor()).abs() < 1e-12);
        assert!((d.expected_score(1.0) - 1.0).abs() < 1e-12);
        let half = d.expected_score(0.5);
        assert!(half > d.guessing_floor() && half < 1.0);
        // Clamping.
        assert_eq!(d.expected_score(2.0), 1.0);
        assert_eq!(d.expected_score(-1.0), d.guessing_floor());
    }

    #[test]
    fn four_options_discriminate_slightly_better_per_question() {
        // With more options the guessing floor is lower, so raw discrimination
        // is higher — the paper's point is that this gain is small relative to
        // the difficulty of authoring a fourth plausible distractor.
        let three = design(3, 20);
        let four = design(4, 20);
        assert!(four.discrimination(0.5) > three.discrimination(0.5));
        let gain = four.discrimination(0.5) - three.discrimination(0.5);
        assert!(gain < 0.06, "the discrimination gain is small: {gain}");
    }

    #[test]
    fn separation_grows_with_question_count() {
        let short = design(3, 5);
        let long = design(3, 50);
        assert!(long.separation_z(0.5) > short.separation_z(0.5));
    }

    #[test]
    fn stats_from_scores() {
        let stats = AssessmentStats::from_scores(&[0.5, 0.75, 1.0]).unwrap();
        assert_eq!(stats.count, 3);
        assert!((stats.mean - 0.75).abs() < 1e-12);
        assert_eq!(stats.min, 0.5);
        assert_eq!(stats.max, 1.0);
        assert!(stats.stddev > 0.0);
        assert!(AssessmentStats::from_scores(&[]).is_none());
    }

    #[test]
    fn perfect_knowledge_gives_infinite_separation() {
        let d = design(3, 10);
        assert_eq!(d.separation_z(1.0), f64::INFINITY);
    }
}
