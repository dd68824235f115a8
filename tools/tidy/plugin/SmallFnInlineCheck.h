// rrtcp-smallfn-inline — Simulator::schedule_at/schedule_in/
// schedule_reserved store their callable in a SmallFn<kEventInlineBytes>
// inline buffer (16 bytes); a callable that doesn't fit — any capture of
// a Packet, for one — silently falls back to heap allocation (counted by
// callback_heap_fallbacks, caught at runtime by the alloc-regression
// tests). This check moves that contract to compile time: every schedule
// call site whose callable exceeds the inline budget gets a diagnostic
// naming the actual size, replacing the hand-written
// static_assert(fits_inline<...>) that used to be scattered at call
// sites.
#ifndef RRTCP_TIDY_SMALLFN_INLINE_CHECK_H
#define RRTCP_TIDY_SMALLFN_INLINE_CHECK_H

#include "ClangTidyCheck.h"

namespace clang::tidy::rrtcp {

class SmallFnInlineCheck : public ClangTidyCheck {
 public:
  SmallFnInlineCheck(StringRef Name, ClangTidyContext* Context);

  void registerMatchers(ast_matchers::MatchFinder* Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult& Result) override;
  void storeOptions(ClangTidyOptions::OptionMap& Opts) override;
  bool isLanguageVersionSupported(const LangOptions& LangOpts) const override {
    return LangOpts.CPlusPlus;
  }

 private:
  // Defaults to sim::kEventInlineBytes (src/sim/small_fn.hpp).
  const unsigned InlineBytes;
  // Must mirror SmallFn's alignment bound (alignof(std::max_align_t)).
  const unsigned InlineAlign;
};

}  // namespace clang::tidy::rrtcp

#endif  // RRTCP_TIDY_SMALLFN_INLINE_CHECK_H
