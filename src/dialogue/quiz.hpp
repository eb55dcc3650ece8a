// Quizzes: structured knowledge checks. The paper's §3.2 frames knowledge
// delivery as "the process of making decision and interaction"; quizzes
// make that measurable — designers attach them to rules (e.g. after the
// repair is done) and the learning report records per-question outcomes,
// which is what the lecturer grades against (§3.3).
#pragma once

#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace vgbl {

struct QuizTag;
using QuizId = Id<QuizTag>;

struct QuizQuestion {
  std::string prompt;
  std::vector<std::string> options;
  size_t correct_option = 0;
  /// Shown after answering (right or wrong) — the teaching moment.
  std::string explanation;
  i64 points = 10;
};

class Quiz {
 public:
  Quiz() = default;
  Quiz(QuizId id, std::string name) : id_(id), name_(std::move(name)) {}

  [[nodiscard]] QuizId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  void add_question(QuizQuestion q) { questions_.push_back(std::move(q)); }
  [[nodiscard]] const std::vector<QuizQuestion>& questions() const {
    return questions_;
  }
  [[nodiscard]] size_t size() const { return questions_.size(); }

  /// Fraction of questions that must be correct to pass (default 60%).
  void set_pass_fraction(f64 f) { pass_fraction_ = f; }
  [[nodiscard]] f64 pass_fraction() const { return pass_fraction_; }

  [[nodiscard]] i64 max_points() const {
    i64 total = 0;
    for (const auto& q : questions_) total += q.points;
    return total;
  }

  /// Lint: at least one question; every question has ≥2 options and a
  /// valid correct index; pass fraction in (0, 1].
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  QuizId id_;
  std::string name_;
  std::vector<QuizQuestion> questions_;
  f64 pass_fraction_ = 0.6;
};

/// Per-question record of one attempt.
struct QuizAnswer {
  size_t question_index = 0;
  size_t chosen_option = 0;
  bool correct = false;
  i64 points_earned = 0;
};

struct QuizOutcome {
  int correct_count = 0;
  int total = 0;
  i64 points_earned = 0;
  bool passed = false;
  std::vector<QuizAnswer> answers;

  [[nodiscard]] f64 fraction_correct() const {
    return total ? static_cast<f64>(correct_count) / total : 0.0;
  }
};

/// Walks one quiz attempt: show `current()`, call `answer(i)` per
/// question, read `outcome()` when `finished()`.
class QuizRunner {
 public:
  explicit QuizRunner(const Quiz* quiz) : quiz_(quiz) {}

  [[nodiscard]] bool finished() const {
    return !quiz_ || index_ >= quiz_->size();
  }
  [[nodiscard]] const QuizQuestion* current() const {
    return finished() ? nullptr : &quiz_->questions()[index_];
  }
  [[nodiscard]] size_t question_number() const { return index_ + 1; }

  /// Answers the current question; returns whether it was correct.
  /// Fails when finished or the option index is out of range.
  Result<bool> answer(size_t option);

  [[nodiscard]] QuizOutcome outcome() const;

 private:
  const Quiz* quiz_;
  size_t index_ = 0;
  std::vector<QuizAnswer> answers_;
};

}  // namespace vgbl
