// Saving and restoring the Decision Maker's experience.
//
// Section 4's learner works from "historic data"; a runtime that forgets
// everything at restart never accumulates any.  The text format is
// line-oriented and versioned: training samples (feature vectors + labels)
// and per-(class, model) calibration summaries.
#pragma once

#include <iosfwd>
#include <string>

#include "common/result.hpp"
#include "partition/decision_maker.hpp"

namespace pgrid::partition {

/// Serializes samples and calibrations; the tree itself is not saved (it is
/// retrained from the samples on load, which also picks up algorithm
/// improvements between versions).
std::string save_experience(const DecisionMaker& maker);
/// The same image appended to `out` (no iostreams, no intermediate string):
/// the checkpoint writer embeds it through a reused buffer.
void save_experience(const DecisionMaker& maker, std::string& out);

/// Restores experience into `maker` (replacing its samples and calibration
/// state) and retrains the tree when any samples were loaded.  Returns the
/// number of samples restored, or an error on malformed input.
common::Result<std::size_t> load_experience(const std::string& text,
                                            DecisionMaker& maker);

}  // namespace pgrid::partition
