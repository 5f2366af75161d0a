// Markdown event report generation.
//
// Turns a pipeline run into the analyst-facing artifact the Apollo tool
// produced: the most credible assertions, the loudest *suspected
// rumours* (high support, low belief — exactly the items a
// dependency-blind ranker would promote), and the most reliable sources
// by learned behaviour.
#pragma once

#include <string>

#include "apollo/pipeline.h"
#include "core/em_ext.h"

namespace ss {

// Renders a markdown report of ten rows per section. `em_result`
// supplies learned source parameters (for the reliable-source section);
// `report` supplies the ranking. Ground-truth labels, when present in
// the dataset, are shown as a "grade" column.
std::string render_markdown_report(const Dataset& dataset,
                                   const PipelineReport& report,
                                   const EmExtResult& em_result);

}  // namespace ss
