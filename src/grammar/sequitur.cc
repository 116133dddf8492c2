#include "grammar/sequitur.h"

#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"

#ifdef GVA_AUDIT
#include "grammar/audit.h"
#endif

namespace gva {
namespace {

// ---------------------------------------------------------------------------
// Internal linked representation, following Nevill-Manning & Witten's
// reference implementation: each rule is a circular doubly-linked list of
// symbols anchored at a guard node; a hash index maps digram contents to the
// first symbol of their unique indexed occurrence.
// ---------------------------------------------------------------------------

struct Rule;

struct Sym {
  Sym* next = nullptr;
  Sym* prev = nullptr;
  int32_t terminal = -1;     // >= 0 for terminals
  Rule* rule = nullptr;      // non-null for non-terminals
  Rule* guard_of = nullptr;  // non-null for a rule's guard node

  bool IsGuard() const { return guard_of != nullptr; }
  bool IsNonTerminal() const { return rule != nullptr; }
  bool IsTerminal() const { return terminal >= 0; }
};

struct Rule {
  Sym guard;
  size_t use_count = 0;   // number of non-terminal symbols referencing this
  uint64_t serial = 0;    // stable identity for digram hashing
  size_t slot = 0;        // index in Inducer::all_rules_

  explicit Rule(uint64_t serial_number) : serial(serial_number) {
    guard.guard_of = this;
    guard.next = &guard;
    guard.prev = &guard;
  }

  Sym* first() { return guard.next; }
  Sym* last() { return guard.prev; }
  bool Empty() { return guard.next == &guard; }
};

class Inducer {
 public:
  // Note: root_ must be created in the body — NewRule() appends to
  // all_rules_, which is declared (and therefore constructed) after root_.
  Inducer() { root_ = NewRule(); }

  ~Inducer() {
    // Free every surviving symbol and rule.
    for (Rule* r : all_rules_) {
      Sym* s = r->first();
      while (!s->IsGuard()) {
        Sym* next = s->next;
        delete s;
        s = next;
      }
      delete r;
    }
  }

  Inducer(const Inducer&) = delete;
  Inducer& operator=(const Inducer&) = delete;

  void AppendTerminal(int32_t token) {
    Sym* s = new Sym();
    s->terminal = token;
    InsertAfter(root_->last(), s);
    Check(s->prev);
  }

  Rule* root() { return root_; }

  /// Extracts the final grammar (rule table + occurrence lists).
  Grammar Extract(size_t num_tokens);

 private:
  // --- identity & digram index -------------------------------------------

  static uint64_t IdOf(const Sym* s) {
    if (s->IsTerminal()) {
      return (static_cast<uint64_t>(s->terminal) << 1) | 1u;
    }
    GVA_DCHECK(s->IsNonTerminal());
    return s->rule->serial << 1;
  }

  static uint64_t DigramKey(const Sym* s) {
    // 64-bit mix of the two symbol identities.
    uint64_t a = IdOf(s);
    uint64_t b = IdOf(s->next);
    uint64_t h = a * 0x9e3779b97f4a7c15ULL;
    h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }

  void DeleteDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    auto it = digrams_.find(DigramKey(s));
    if (it == digrams_.end() || it->second != s) {
      return;
    }
    // Inside a run of >= 3 identical symbols ("x x x"), the digram starting
    // at s overlaps an identical digram starting at s->next that was never
    // indexed (Check skips overlapping occurrences). If that twin is still
    // live it inherits the index slot; dropping the entry outright would
    // leave a live digram invisible to future Check calls, which is how
    // duplicate digrams could survive. (If s->next itself is being deleted
    // by the enclosing operation, its own DeleteDigram runs right after and
    // erases the slot again.)
    Sym* twin = s->next;
    if (!twin->IsGuard() && !twin->next->IsGuard() &&
        IdOf(twin) == IdOf(s) && IdOf(twin->next) == IdOf(twin)) {
      it->second = twin;
    } else {
      digrams_.erase(it);
    }
  }

  void IndexDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    digrams_[DigramKey(s)] = s;
  }

  // --- linked-list surgery -------------------------------------------------

  /// Links left -> right, un-indexing the digram that previously started at
  /// `left`.
  void Join(Sym* left, Sym* right) {
    if (left->next != nullptr) {
      DeleteDigram(left);
    }
    left->next = right;
    right->prev = left;
  }

  void InsertAfter(Sym* s, Sym* y) {
    Join(y, s->next);
    Join(s, y);
  }

  /// Unlinks and frees `s`, maintaining the digram index and use counts.
  void DeleteSymbol(Sym* s) {
    GVA_DCHECK(!s->IsGuard());
    Join(s->prev, s->next);
    DeleteDigram(s);
    if (s->IsNonTerminal()) {
      Deuse(s->rule);
    }
    delete s;
  }

  // --- rules ---------------------------------------------------------------

  Rule* NewRule() {
    Rule* r = new Rule(next_serial_++);
    r->slot = all_rules_.size();
    all_rules_.push_back(r);
    return r;
  }

  void Reuse(Rule* r) { ++r->use_count; }
  void Deuse(Rule* r) {
    GVA_DCHECK(r->use_count > 0);
    --r->use_count;
  }

  Sym* NewNonTerminal(Rule* r) {
    Sym* s = new Sym();
    s->rule = r;
    Reuse(r);
    return s;
  }

  Sym* CopyOf(const Sym* s) {
    if (s->IsNonTerminal()) {
      return NewNonTerminal(s->rule);
    }
    Sym* c = new Sym();
    c->terminal = s->terminal;
    return c;
  }

  // --- the Sequitur invariants --------------------------------------------

  /// Checks the digram starting at `s` against the index. Returns true when
  /// the digram was already present (and was dealt with by Match).
  bool Check(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return false;
    }
    const uint64_t key = DigramKey(s);
    auto it = digrams_.find(key);
    if (it == digrams_.end()) {
      digrams_.emplace(key, s);
      return false;
    }
    Sym* found = it->second;
    if (found->next != s) {  // Overlapping occurrence (e.g. "aaa"): skip.
      Match(s, found);
    }
    return true;
  }

  /// Deals with a repeated digram: `ss` is the new occurrence, `found` the
  /// indexed one.
  void Match(Sym* ss, Sym* found) {
    Rule* r = nullptr;
    if (found->prev->IsGuard() && found->next->next->IsGuard()) {
      // `found` is the complete RHS of an existing rule: reuse it.
      r = found->prev->guard_of;
      Substitute(ss, r);
    } else {
      // Create a new rule from the digram's content.
      r = NewRule();
      InsertAfter(r->last(), CopyOf(ss));
      InsertAfter(r->last(), CopyOf(ss->next));
      Substitute(found, r);
      Substitute(ss, r);
      IndexDigram(r->first());
    }
    // Rule utility: inline any rule that is now referenced only once
    // (Nevill-Manning & Witten check the first RHS symbol here; the digram
    // that was just folded starts with it).
    if (r->first()->IsNonTerminal() && r->first()->rule->use_count == 1) {
      Expand(r->first());
    }
  }

  /// Replaces the digram starting at `s` with a non-terminal for `r`.
  void Substitute(Sym* s, Rule* r) {
    Sym* q = s->prev;
    DeleteSymbol(s->next);
    DeleteSymbol(s);
    InsertAfter(q, NewNonTerminal(r));
    if (!Check(q)) {
      Check(q->next);
    }
  }

  /// Inlines the contents of `s`'s rule (used exactly once) in place of `s`
  /// and deletes the rule.
  void Expand(Sym* s) {
    GVA_DCHECK(s->IsNonTerminal());
    Rule* q = s->rule;
    GVA_DCHECK(q->use_count == 1);
    GVA_DCHECK(!q->Empty());
    Sym* left = s->prev;
    Sym* right = s->next;
    Sym* f = q->first();
    Sym* l = q->last();

    DeleteDigram(s);  // un-index (s, right)
    Join(left, f);    // un-indexes (left, s)
    Join(l, right);

    // Detach the guard so the rule can be freed; its symbols now live in the
    // enclosing rule.
    q->guard.next = &q->guard;
    q->guard.prev = &q->guard;
    FreeRule(q);
    delete s;

    // The spliced-in boundary digram (l, right) may duplicate a digram that
    // already exists elsewhere in the grammar. Blindly indexing it (as the
    // reference implementation does) can orphan the other occurrence and
    // leave a repeated digram behind; running it through the normal check
    // folds the duplicate and keeps the uniqueness invariant intact.
    Check(l);
    if (!left->IsGuard()) {
      Check(left);
    }
  }

  /// O(1): the last rule moves into the freed slot, so all_rules_ holds
  /// exactly the live rules. Sequitur retires most rules it creates (98-99%
  /// on the SAX words of a periodic series), so a scan here made induction
  /// quadratic in the number of rules ever created.
  void FreeRule(Rule* q) {
    Rule* moved = all_rules_.back();
    moved->slot = q->slot;
    all_rules_[q->slot] = moved;
    all_rules_.pop_back();
    delete q;
  }

  Rule* root_ = nullptr;
  uint64_t next_serial_ = 0;
  std::unordered_map<uint64_t, Sym*> digrams_;
  std::vector<Rule*> all_rules_;
};

Grammar Inducer::Extract(size_t num_tokens) {
  // Assign dense ids by first encounter in a pre-order walk from R0.
  std::unordered_map<const Rule*, int32_t> ids;
  std::vector<Rule*> ordered;
  ids.emplace(root_, 0);
  ordered.push_back(root_);
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (Sym* s = ordered[i]->first(); !s->IsGuard(); s = s->next) {
      if (s->IsNonTerminal() && !ids.contains(s->rule)) {
        ids.emplace(s->rule, static_cast<int32_t>(ordered.size()));
        ordered.push_back(s->rule);
      }
    }
  }

  std::vector<GrammarRule> rules(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    GrammarRule& out = rules[i];
    out.id = static_cast<int32_t>(i);
    out.use_count = ordered[i]->use_count;
    for (Sym* s = ordered[i]->first(); !s->IsGuard(); s = s->next) {
      if (s->IsTerminal()) {
        out.rhs.push_back(GrammarSymbol{true, s->terminal});
      } else {
        out.rhs.push_back(GrammarSymbol{false, ids.at(s->rule)});
      }
    }
  }

  // Expansion lengths, bottom-up via memoized resolution. Rules form a DAG
  // (a rule only references rules that exist when it is created, and
  // pre-order id assignment does not guarantee topological order), so use a
  // small fixpoint DFS.
  std::vector<size_t> lengths(rules.size(), 0);
  std::vector<int> state(rules.size(), 0);  // 0=unvisited 1=visiting 2=done
  struct LenFrame {
    size_t rule;
    size_t pos;
  };
  for (size_t start = 0; start < rules.size(); ++start) {
    if (state[start] == 2) {
      continue;
    }
    std::vector<LenFrame> stack{{start, 0}};
    state[start] = 1;
    while (!stack.empty()) {
      LenFrame& top = stack.back();
      const GrammarRule& r = rules[top.rule];
      if (top.pos == r.rhs.size()) {
        size_t total = 0;
        for (const GrammarSymbol& sym : r.rhs) {
          total += sym.is_terminal
                       ? 1
                       : lengths[static_cast<size_t>(sym.id)];
        }
        lengths[top.rule] = total;
        state[top.rule] = 2;
        stack.pop_back();
        continue;
      }
      const GrammarSymbol& sym = r.rhs[top.pos];
      ++top.pos;
      if (!sym.is_terminal) {
        size_t child = static_cast<size_t>(sym.id);
        if (state[child] == 0) {
          state[child] = 1;
          stack.push_back({child, 0});
        } else {
          GVA_CHECK(state[child] == 2) << "cycle in Sequitur grammar";
        }
      }
    }
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    rules[i].expansion_tokens = lengths[i];
  }

  // Occurrences: single walk of R0's expansion recording the start token of
  // every non-terminal occurrence.
  struct OccFrame {
    size_t rule;
    size_t pos;
  };
  rules[0].occurrences.push_back(0);
  std::vector<OccFrame> stack{{0, 0}};
  size_t token_pos = 0;
  while (!stack.empty()) {
    OccFrame& top = stack.back();
    const GrammarRule& r = rules[top.rule];
    if (top.pos == r.rhs.size()) {
      stack.pop_back();
      continue;
    }
    const GrammarSymbol& sym = r.rhs[top.pos];
    ++top.pos;
    if (sym.is_terminal) {
      ++token_pos;
    } else {
      size_t child = static_cast<size_t>(sym.id);
      rules[child].occurrences.push_back(token_pos);
      stack.push_back({child, 0});
    }
  }
  GVA_CHECK_EQ(token_pos, num_tokens);

  return Grammar(std::move(rules), num_tokens);
}

}  // namespace

struct IncrementalSequitur::Impl {
  Inducer inducer;
#ifdef GVA_AUDIT
  // Audit builds keep a copy of the appended terminals so every extracted
  // snapshot can be round-trip checked against the exact input.
  std::vector<int32_t> appended;
#endif
};

IncrementalSequitur::IncrementalSequitur() : impl_(new Impl()) {}
IncrementalSequitur::~IncrementalSequitur() = default;
IncrementalSequitur::IncrementalSequitur(IncrementalSequitur&&) noexcept =
    default;
IncrementalSequitur& IncrementalSequitur::operator=(
    IncrementalSequitur&&) noexcept = default;

Status IncrementalSequitur::Append(int32_t token) {
  if (token < 0) {
    return Status::InvalidArgument("token ids must be non-negative");
  }
  impl_->inducer.AppendTerminal(token);
#ifdef GVA_AUDIT
  impl_->appended.push_back(token);
#endif
  ++num_tokens_;
  return Status::Ok();
}

Grammar IncrementalSequitur::ExtractGrammar() const {
  Grammar grammar = impl_->inducer.Extract(num_tokens_);
#ifdef GVA_AUDIT
  // Post-induction audit (GVA_AUDIT trees only): every snapshot handed to a
  // caller satisfies the Sequitur invariants and the density-curve
  // bookkeeping. GVA_DCHECK is always live under GVA_AUDIT (util/check.h).
  const Status audit = AuditGrammar(grammar, impl_->appended);
  GVA_DCHECK(audit.ok()) << audit.message();
#endif
  return grammar;
}

StatusOr<Grammar> InferGrammar(std::span<const int32_t> tokens) {
  GVA_OBS_SPAN("grammar.sequitur.induce");
  IncrementalSequitur sequitur;
  for (int32_t t : tokens) {
    GVA_RETURN_IF_ERROR(sequitur.Append(t));
  }
  return sequitur.ExtractGrammar();
}

StatusOr<WordGrammar> InferGrammarFromWords(
    const std::vector<std::string>& words) {
  WordGrammar result;
  std::unordered_map<std::string, int32_t> index;
  result.tokens.reserve(words.size());
  for (const std::string& w : words) {
    auto [it, inserted] =
        index.try_emplace(w, static_cast<int32_t>(result.vocabulary.size()));
    if (inserted) {
      result.vocabulary.push_back(w);
    }
    result.tokens.push_back(it->second);
  }
  GVA_ASSIGN_OR_RETURN(result.grammar, InferGrammar(result.tokens));
  return result;
}

}  // namespace gva
