#include "SmallFnInlineCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "sim/small_fn.hpp"  // ::rrtcp::sim::kEventInlineBytes

using namespace clang::ast_matchers;

namespace clang::tidy::rrtcp {

SmallFnInlineCheck::SmallFnInlineCheck(StringRef Name,
                                       ClangTidyContext* Context)
    : ClangTidyCheck(Name, Context),
      InlineBytes(Options.get(
          "InlineBytes",
          static_cast<unsigned>(::rrtcp::sim::kEventInlineBytes))),
      InlineAlign(Options.get("InlineAlign", 16U)) {}

void SmallFnInlineCheck::storeOptions(ClangTidyOptions::OptionMap& Opts) {
  Options.store(Opts, "InlineBytes", InlineBytes);
  Options.store(Opts, "InlineAlign", InlineAlign);
}

void SmallFnInlineCheck::registerMatchers(MatchFinder* Finder) {
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(
              hasAnyName("schedule_at", "schedule_in", "schedule_reserved",
                         "reschedule_at", "reschedule_in"),
              ofClass(hasName("::rrtcp::sim::Simulator")))))
          .bind("call"),
      this);
}

void SmallFnInlineCheck::check(const MatchFinder::MatchResult& Result) {
  const auto* Call = Result.Nodes.getNodeAs<CXXMemberCallExpr>("call");
  if (Call == nullptr || Call->getNumArgs() < 2) return;
  // The callable is the last argument: schedule_reserved takes (at, seq, fn).
  const Expr* Callable =
      Call->getArg(Call->getNumArgs() - 1)->IgnoreParenImpCasts();
  // Materialized temporaries wrap the lambda/functor expression.
  if (const auto* MTE = dyn_cast<MaterializeTemporaryExpr>(Callable))
    Callable = MTE->getSubExpr()->IgnoreParenImpCasts();
  QualType T = Callable->getType().getNonReferenceType();
  if (T->isDependentType() || !T->isRecordType()) return;

  ASTContext& Ctx = *Result.Context;
  if (T->getAsRecordDecl() == nullptr ||
      !T->getAsRecordDecl()->isCompleteDefinition())
    return;
  const auto Size = Ctx.getTypeSizeInChars(T).getQuantity();
  const auto Align = Ctx.getTypeAlignInChars(T).getQuantity();

  if (static_cast<unsigned>(Size) > InlineBytes) {
    diag(Callable->getBeginLoc(),
         "callable is %0 bytes but SmallFn's inline buffer holds %1; this "
         "schedule call will heap-allocate every time it fires — capture "
         "big state by reference or shrink the capture list")
        << static_cast<unsigned>(Size) << InlineBytes;
  } else if (static_cast<unsigned>(Align) > InlineAlign) {
    diag(Callable->getBeginLoc(),
         "callable requires %0-byte alignment but SmallFn's inline buffer "
         "guarantees %1; this schedule call will heap-allocate")
        << static_cast<unsigned>(Align) << InlineAlign;
  }
}

}  // namespace clang::tidy::rrtcp
