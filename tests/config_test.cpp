#include <gtest/gtest.h>

#include "config/config.hpp"
#include "config/xml.hpp"

namespace dmr::config {
namespace {

// ------------------------------------------------------------------- xml

TEST(Xml, SimpleElement) {
  auto r = parse_xml("<root/>");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().name, "root");
  EXPECT_TRUE(r.value().children.empty());
}

TEST(Xml, Attributes) {
  auto r = parse_xml(R"(<layout name="my_layout" type='real' dimensions="64,16,2"/>)");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().attr_or("name", ""), "my_layout");
  EXPECT_EQ(r.value().attr_or("type", ""), "real");
  EXPECT_EQ(r.value().attr_or("dimensions", ""), "64,16,2");
  EXPECT_EQ(r.value().attr("missing"), nullptr);
  EXPECT_EQ(r.value().attr_or("missing", "dflt"), "dflt");
}

TEST(Xml, NestedChildren) {
  auto r = parse_xml(R"(
    <damaris>
      <layout name="a"/>
      <variable name="v1"/>
      <variable name="v2"/>
    </damaris>)");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().children.size(), 3u);
  EXPECT_NE(r.value().child("layout"), nullptr);
  EXPECT_EQ(r.value().children_named("variable").size(), 2u);
  EXPECT_EQ(r.value().child("nope"), nullptr);
}

TEST(Xml, TextContent) {
  auto r = parse_xml("<msg>hello &amp; goodbye</msg>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().text, "hello & goodbye");
}

TEST(Xml, CommentsAndDeclarationsSkipped) {
  auto r = parse_xml(R"(<?xml version="1.0"?>
    <!-- preamble -->
    <root><!-- inner --><child/></root>
    <!-- trailing -->)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().children.size(), 1u);
}

TEST(Xml, EntitiesInAttributes) {
  auto r = parse_xml(R"(<e v="&lt;a&gt;&quot;&apos;"/>)");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().attr_or("v", ""), "<a>\"'");
}

TEST(Xml, Errors) {
  EXPECT_FALSE(parse_xml("").is_ok());
  EXPECT_FALSE(parse_xml("<a>").is_ok());                  // unterminated
  EXPECT_FALSE(parse_xml("<a></b>").is_ok());              // mismatched
  EXPECT_FALSE(parse_xml("<a x=1/>").is_ok());             // unquoted attr
  EXPECT_FALSE(parse_xml("<a/><b/>").is_ok());             // two roots
  EXPECT_FALSE(parse_xml("<a>&bogus;</a>").is_ok());       // bad entity
  EXPECT_FALSE(parse_xml("just text").is_ok());
}

TEST(Xml, ErrorMentionsLine) {
  auto r = parse_xml("<a>\n\n<b x=3/></a>");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

// ---------------------------------------------------------------- config

const char* kPaperExample = R"(
<damaris>
  <buffer size="1048576" policy="partitioned"/>
  <dedicated cores="1"/>
  <layout name="my_layout" type="real" dimensions="64,16,2"
          language="fortran"/>
  <variable name="my_variable" layout="my_layout"/>
  <event name="my_event" action="do_something" using="my_plugin"
         scope="local"/>
</damaris>)";

TEST(Config, ParsesPaperExample) {
  auto r = Config::from_string(kPaperExample);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Config& c = r.value();
  EXPECT_EQ(c.buffer_size(), 1048576u);
  EXPECT_EQ(c.buffer_policy(), "partitioned");
  EXPECT_EQ(c.dedicated_cores(), 1);

  const LayoutDecl* l = c.find_layout("my_layout");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->layout.type, format::DataType::kFloat32);  // "real"
  EXPECT_EQ(l->layout.dims, (std::vector<std::uint64_t>{64, 16, 2}));

  const VariableDecl* v = c.find_variable("my_variable");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->layout_name, "my_layout");

  const EventDecl* e = c.find_event("my_event");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->action, "do_something");
  EXPECT_EQ(e->scope, "local");

  const format::Layout* resolved = c.layout_of("my_variable");
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->byte_size(), 64u * 16 * 2 * 4);
}

TEST(Config, Defaults) {
  auto r = Config::from_string("<damaris/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().buffer_size(), 64 * MiB);
  EXPECT_EQ(r.value().buffer_policy(), "firstfit");
  EXPECT_EQ(r.value().dedicated_cores(), 1);
}

TEST(Config, VariablePipelines) {
  auto r = Config::from_string(R"(
    <damaris>
      <layout name="l" type="float32" dimensions="8"/>
      <variable name="raw" layout="l"/>
      <variable name="packed" layout="l" pipeline="lossless"/>
      <variable name="viz" layout="l" pipeline="visualization"/>
    </damaris>)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().find_variable("raw")->pipeline, "");
  EXPECT_EQ(r.value().find_variable("packed")->pipeline, "lossless");
  EXPECT_EQ(r.value().find_variable("viz")->pipeline, "visualization");
}

TEST(Config, RejectsBadRoot) {
  EXPECT_FALSE(Config::from_string("<other/>").is_ok());
}

TEST(Config, RejectsUnknownLayoutReference) {
  auto r = Config::from_string(R"(
    <damaris><variable name="v" layout="ghost"/></damaris>)");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("ghost"), std::string::npos);
}

TEST(Config, RejectsBadDimensions) {
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real" dimensions="8,,2"/></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real" dimensions="0"/></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real" dimensions="abc"/></damaris>)")
                   .is_ok());
  // A sign: strtoull alone reads "-1" as 2^64 - 1.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real" dimensions="-1"/></damaris>)")
                   .is_ok());
  // 2^64 elements: the byte size would wrap to 0.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real"
      dimensions="4294967296,4294967296"/></damaris>)")
                   .is_ok());
  // 2^62 elements fit in 64 bits, but not as 4-byte floats.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="real"
      dimensions="4611686018427387904"/></damaris>)")
                   .is_ok());
  // ... while as bytes they do.
  EXPECT_TRUE(Config::from_string(R"(
    <damaris><layout name="l" type="uint8"
      dimensions="4611686018427387904"/></damaris>)")
                  .is_ok());
}

TEST(Config, RejectsBadBufferSizeAndDedicatedCores) {
  for (const char* xml : {
           R"(<damaris><buffer size="-1"/></damaris>)",
           R"(<damaris><buffer size="18446744073709551616"/></damaris>)",
           R"(<damaris><dedicated cores="2x"/></damaris>)",
           R"(<damaris><dedicated cores="4294967297"/></damaris>)",
           R"(<damaris><dedicated cores="0"/></damaris>)",
       }) {
    EXPECT_FALSE(Config::from_string(xml).is_ok()) << xml;
  }
  auto two = Config::from_string(R"(<damaris><dedicated cores="2"/></damaris>)");
  ASSERT_TRUE(two.is_ok()) << two.status().to_string();
  EXPECT_EQ(two.value().dedicated_cores(), 2);
}

TEST(Config, RejectsUnknownType) {
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><layout name="l" type="complex" dimensions="4"/></damaris>)")
                   .is_ok());
}

TEST(Config, RejectsDuplicates) {
  EXPECT_FALSE(Config::from_string(R"(
    <damaris>
      <layout name="l" type="real" dimensions="4"/>
      <layout name="l" type="real" dimensions="8"/>
    </damaris>)")
                   .is_ok());
}

TEST(Config, RejectsBadPolicyAndScopeAndPipeline) {
  EXPECT_FALSE(
      Config::from_string(R"(<damaris><buffer policy="magic"/></damaris>)")
          .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><event name="e" action="a" scope="universe"/></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris>
      <layout name="l" type="real" dimensions="4"/>
      <variable name="v" layout="l" pipeline="zip"/>
    </damaris>)")
                   .is_ok());
}

TEST(Config, RejectsUnknownSection) {
  // A misspelled section, and sections no part of the node reads.
  for (const char* name : {"resiliance", "monitor", "scheduling", "facility"}) {
    const std::string xml = std::string("<damaris><") + name + "/></damaris>";
    auto r = Config::from_string(xml);
    ASSERT_FALSE(r.is_ok()) << xml;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << xml;
    EXPECT_NE(r.status().message().find(name), std::string::npos)
        << r.status().to_string();
  }
}

TEST(Config, RejectsEventWithoutAction) {
  EXPECT_FALSE(
      Config::from_string(R"(<damaris><event name="e"/></damaris>)").is_ok());
}

TEST(Config, ParsesFaultPlan) {
  auto r = Config::from_string(R"(
    <damaris>
      <fault seed="42">
        <inject site="storage.write" rate="0.25"/>
        <inject site="shm.exhaust" at="5" for="2"/>
        <inject site="server.slow" at="1" for="10" factor="4"/>
        <inject site="core.crash" at="3" for="1" stall="0.01"/>
      </fault>
    </damaris>)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const fault::FaultPlan& plan = r.value().fault_plan();
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.faults.size(), 4u);
  EXPECT_EQ(plan.faults[0].site, fault::Site::kStorageWrite);
  EXPECT_DOUBLE_EQ(plan.faults[0].rate, 0.25);
  EXPECT_EQ(plan.faults[1].site, fault::Site::kShmExhaust);
  EXPECT_DOUBLE_EQ(plan.faults[1].window_start, 5.0);
  EXPECT_DOUBLE_EQ(plan.faults[1].window_length, 2.0);
  EXPECT_DOUBLE_EQ(plan.faults[2].factor, 4.0);
  EXPECT_DOUBLE_EQ(plan.faults[3].stall_seconds, 0.01);
  EXPECT_TRUE(plan.validate().is_ok());
}

TEST(Config, FaultPlanDefaultsEmpty) {
  auto r = Config::from_string("<damaris/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().fault_plan().empty());
  // Resilience defaults reproduce the historical behaviour.
  const fault::ResilienceConfig& res = r.value().resilience();
  EXPECT_FALSE(res.retry.enabled());
  EXPECT_FALSE(res.degrade.allow_sync);
  EXPECT_FALSE(res.degrade.allow_drop);
  EXPECT_EQ(res.degrade.block_timeout_ms, 5000);
}

TEST(Config, RejectsMalformedFaultPlans) {
  // Unknown site.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="disk.melt" rate="0.5"/></fault></damaris>)")
                   .is_ok());
  // Missing site.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject rate="0.5"/></fault></damaris>)")
                   .is_ok());
  // Rate out of range.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="storage.write" rate="1.5"/></fault></damaris>)")
                   .is_ok());
  // Window without a length.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="shm.exhaust" at="5"/></fault></damaris>)")
                   .is_ok());
  // Neither rate nor window.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="storage.write"/></fault></damaris>)")
                   .is_ok());
  // Degradation factor below 1.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault>
      <inject site="server.slow" at="0" for="5" factor="0.5"/>
    </fault></damaris>)")
                   .is_ok());
  // Unparseable seed / numeric junk.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault seed="banana">
      <inject site="storage.write" rate="0.5"/>
    </fault></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="storage.write" rate="0.5x"/></fault></damaris>)")
                   .is_ok());
  // Non-finite numbers slip past every `x < bound` check.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault>
      <inject site="server.slow" at="0" for="5" factor="nan"/>
    </fault></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault><inject site="storage.write" rate="nan"/></fault></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><fault>
      <inject site="storage.stall" rate="0.5" stall="inf"/>
    </fault></damaris>)")
                   .is_ok());
}

TEST(Config, ParsesResilience) {
  auto r = Config::from_string(R"(
    <damaris>
      <resilience>
        <retry attempts="6" base_delay="0.001" max_delay="0.05" deadline="2"/>
        <degrade block_timeout_ms="50" sync="true" drop="true"
                 trip="1" clear="4"/>
      </resilience>
    </damaris>)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const fault::ResilienceConfig& res = r.value().resilience();
  EXPECT_EQ(res.retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(res.retry.base_delay, 0.001);
  EXPECT_DOUBLE_EQ(res.retry.max_delay, 0.05);
  EXPECT_DOUBLE_EQ(res.retry.deadline, 2.0);
  EXPECT_EQ(res.degrade.block_timeout_ms, 50);
  EXPECT_TRUE(res.degrade.allow_sync);
  EXPECT_TRUE(res.degrade.allow_drop);
  EXPECT_EQ(res.degrade.trip_threshold, 1);
  EXPECT_EQ(res.degrade.clear_threshold, 4);
}

TEST(Config, RejectsMalformedResilience) {
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><retry attempts="0"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><retry base_delay="0"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience>
      <retry base_delay="0.01" max_delay="0.001"/>
    </resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><degrade sync="maybe"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><degrade trip="0"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><degrade block_timeout_ms="-2"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><degrade block_timeout_ms="-1"/></resilience></damaris>)")
                   .is_ok());
  // 2^32 + 3 does not fit in an int; narrowed, it would read as 3.
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><retry attempts="4294967299"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><retry base_delay="nan"/></resilience></damaris>)")
                   .is_ok());
  EXPECT_FALSE(Config::from_string(R"(
    <damaris><resilience><retry max_delay="inf"/></resilience></damaris>)")
                   .is_ok());
}

// --------------------------------------------------- <plugins> section

TEST(Config, ParsesPlugins) {
  auto r = Config::from_string(R"(
    <damaris>
      <layout name="grid" type="float32" dimensions="8"/>
      <variable name="field" layout="grid"/>
      <variable name="aux" layout="grid"/>
      <plugins budget_ms="12.5" on_error="disable" on_overrun="warn">
        <plugin name="stats" type="statistics" variables="field,aux"/>
        <plugin name="down" type="downsample" variables="field" stride="16"/>
      </plugins>
    </damaris>)");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const PluginsConfig& p = r.value().plugins();
  EXPECT_FALSE(p.empty());
  EXPECT_DOUBLE_EQ(p.budget_ms, 12.5);
  EXPECT_EQ(p.on_error, "disable");
  EXPECT_EQ(p.on_overrun, "warn");
  ASSERT_EQ(p.plugins.size(), 2u);
  EXPECT_EQ(p.plugins[0].name, "stats");
  EXPECT_EQ(p.plugins[0].type, "statistics");
  ASSERT_EQ(p.plugins[0].variables.size(), 2u);
  EXPECT_EQ(p.plugins[0].variables[1], "aux");
  EXPECT_EQ(p.plugins[1].stride, 16);
}

TEST(Config, PluginsDefaultEmpty) {
  auto r = Config::from_string("<damaris/>");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().plugins().empty());

  auto empty_section = Config::from_string("<damaris><plugins/></damaris>");
  ASSERT_TRUE(empty_section.is_ok());
  EXPECT_TRUE(empty_section.value().plugins().empty());
}

TEST(Config, RejectsMalformedPlugins) {
  const char* bad[] = {
      // plugin without a name
      R"(<damaris><plugins><plugin type="statistics"/></plugins></damaris>)",
      // plugin without a type
      R"(<damaris><plugins><plugin name="p"/></plugins></damaris>)",
      // duplicate plugin names
      R"(<damaris><plugins>
           <plugin name="p" type="statistics"/>
           <plugin name="p" type="downsample"/>
         </plugins></damaris>)",
      // negative budget
      R"(<damaris><plugins budget_ms="-1"/></damaris>)",
      // unknown failure policy
      R"(<damaris><plugins on_error="explode"/></damaris>)",
      R"(<damaris><plugins on_overrun="explode"/></damaris>)",
      // stride below 1
      R"(<damaris><plugins>
           <plugin name="p" type="downsample" stride="0"/>
         </plugins></damaris>)",
      // empty token in the variable list
      R"(<damaris>
           <layout name="g" type="float32" dimensions="4"/>
           <variable name="v" layout="g"/>
           <plugins><plugin name="p" type="statistics" variables="v,"/>
           </plugins></damaris>)",
      // variables must name declared variables
      R"(<damaris><plugins>
           <plugin name="p" type="statistics" variables="ghost"/>
         </plugins></damaris>)",
  };
  for (const char* xml : bad) {
    EXPECT_FALSE(Config::from_string(xml).is_ok()) << xml;
  }
}

}  // namespace
}  // namespace dmr::config
