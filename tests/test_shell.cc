#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "shell/shell.h"
#include "tests/test_util.h"

namespace svc {
namespace {

constexpr char kSetupSql[] =
    "CREATE TABLE t (a INT, b DOUBLE, PRIMARY KEY (a));"
    "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5);"
    "REFRESH ALL;";

TEST(ShellTest, RunScriptPrintsTablesAndMessages) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  SVC_ASSERT_OK(shell.RunScript(std::string(kSetupSql) +
                                "SELECT a, b FROM t WHERE a > 1;"));
  const std::string text = out.str();
  EXPECT_NE(text.find("created table t"), std::string::npos);
  EXPECT_NE(text.find("REFRESH commits them"), std::string::npos);
  EXPECT_NE(text.find("a  b"), std::string::npos);   // header
  EXPECT_NE(text.find("3.5"), std::string::npos);    // cell
  EXPECT_NE(text.find("-- 2 row(s)"), std::string::npos);
  EXPECT_EQ(shell.statements_run(), 4u);
}

TEST(ShellTest, EchoModePrefixesStatements) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  ShellOptions opts;
  opts.echo = true;
  Shell shell(&session, &out, opts);
  SVC_ASSERT_OK(shell.RunScript(
      "CREATE TABLE t (a INT, PRIMARY KEY (a));"));
  EXPECT_NE(out.str().find("svc> CREATE TABLE t"), std::string::npos);
}

TEST(ShellTest, StopsOnErrorByDefault) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  const Status s = shell.RunScript(
      "SELECT * FROM missing; CREATE TABLE t (a INT, PRIMARY KEY (a));");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(shell.statements_run(), 1u);  // second statement never ran
  EXPECT_NE(out.str().find("error: UnknownRelation"), std::string::npos);
}

TEST(ShellTest, KeepGoingRunsPastErrors) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  ShellOptions opts;
  opts.keep_going = true;
  Shell shell(&session, &out, opts);
  const Status s = shell.RunScript(
      "SELECT * FROM missing; CREATE TABLE t (a INT, PRIMARY KEY (a));");
  EXPECT_FALSE(s.ok());  // the error is still reported...
  EXPECT_EQ(shell.statements_run(), 2u);  // ...but execution continued
  EXPECT_NE(out.str().find("created table t"), std::string::npos);
}

TEST(ShellTest, InteractiveStatementsSpanLines) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  std::istringstream in(
      "CREATE TABLE t (a INT,\n"
      "PRIMARY KEY (a));\n"
      "INSERT INTO t VALUES (7); REFRESH ALL;\n"
      "SELECT a FROM t\n");  // final ';' omitted: EOF submits
  SVC_ASSERT_OK(shell.RunInteractive(in, out, /*show_prompt=*/false));
  const std::string text = out.str();
  EXPECT_NE(text.find("created table t"), std::string::npos);
  EXPECT_NE(text.find("-- 1 row(s)"), std::string::npos);
  EXPECT_EQ(shell.statements_run(), 4u);
}

TEST(ShellTest, InteractiveSemicolonInCommentDoesNotSubmit) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  std::istringstream in(
      "CREATE TABLE t (a INT, PRIMARY KEY (a));\n"
      "SELECT COUNT(1) AS n -- count rows;\n"
      "FROM t;\n");
  // The ';' inside the comment must not end the statement: the SELECT
  // spans both lines and succeeds.
  SVC_ASSERT_OK(shell.RunInteractive(in, out, /*show_prompt=*/false));
  EXPECT_NE(out.str().find("-- 1 row(s)"), std::string::npos);
  EXPECT_EQ(shell.statements_run(), 2u);
}

TEST(ShellTest, InteractiveSurvivesStatementErrorsButReportsThem) {
  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  std::istringstream in(
      "SELECT * FROM missing;\n"
      "CREATE TABLE t (a INT, PRIMARY KEY (a));\n");
  // The loop continues past the error, but the error still becomes the
  // return value so piped scripts exit non-zero like --file does.
  EXPECT_FALSE(shell.RunInteractive(in, out, /*show_prompt=*/false).ok());
  EXPECT_NE(out.str().find("error: UnknownRelation"), std::string::npos);
  EXPECT_NE(out.str().find("created table t"), std::string::npos);
}

// The documented example script must run clean through the shell library
// (the svc_shell binary-level golden diff is a separate ctest +
// the CI docs job).
TEST(ShellTest, QuickstartScriptRunsClean) {
  std::ifstream in(std::string(SVC_REPO_DIR) + "/examples/quickstart.sql");
  ASSERT_TRUE(in.is_open()) << "examples/quickstart.sql not found";
  std::ostringstream script;
  script << in.rdbuf();

  SqlSession session(EngineHandle::Private());
  std::ostringstream out;
  Shell shell(&session, &out);
  SVC_ASSERT_OK(shell.RunScript(script.str()));
  // The script's SVC estimate answers carry confidence intervals.
  EXPECT_NE(out.str().find("95% CI"), std::string::npos);
  EXPECT_FALSE(session.engine().IsStale());  // it ends with a REFRESH
}

}  // namespace
}  // namespace svc
