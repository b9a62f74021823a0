// Tests for the parser's depth limit.

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace xrank {
namespace {

// --- parser depth guard ---

TEST(ParserDepthTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 600; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 600; ++i) deep += "</a>";
  auto doc = xml::ParseDocument(deep, "deep");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("depth"), std::string::npos);

  xml::ParseOptions options;
  options.max_depth = 1000;
  EXPECT_TRUE(xml::ParseDocument(deep, "deep", options).ok());
}

TEST(ParserDepthTest, DefaultAllowsRealisticDepth) {
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += "<n>";
  nested += "payload";
  for (int i = 0; i < 100; ++i) nested += "</n>";
  EXPECT_TRUE(xml::ParseDocument(nested, "ok").ok());
}

}  // namespace
}  // namespace xrank
