#include "grammar/sequitur.h"

#include <sanitizer/asan_interface.h>

#include <bit>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

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
  // The symbol's identity in digrams: (token << 1) | 1 for a terminal,
  // the rule's serial << 1 for a non-terminal, 0 for a guard. Stored, not
  // derived, so hashing a digram never dereferences a rule.
  uint64_t id = 0;
  Rule* rule = nullptr;      // non-null for non-terminals
  Rule* guard_of = nullptr;  // non-null for a rule's guard node

  bool IsGuard() const { return guard_of != nullptr; }
  bool IsNonTerminal() const { return rule != nullptr; }
  bool IsTerminal() const { return (id & 1u) != 0; }
  int32_t terminal() const { return static_cast<int32_t>(id >> 1); }
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

/// Chunked free-list pool of one Inducer's symbols or rules. A freed slot is
/// handed out again before a new chunk is carved, so induction — which
/// retires most of the symbols and rules it creates — stops allocating once
/// the grammar's high-water mark is reached, and the whole graph is released
/// with the chunks. Under AddressSanitizer free and not-yet-carved slots are
/// poisoned, so a read of a retired symbol is still reported, as it was when
/// every symbol had its own heap block.
template <typename T>
class Pool {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    for (const std::unique_ptr<Slot[]>& chunk : chunks_) {
      ASAN_UNPOISON_MEMORY_REGION(chunk.get(), sizeof(Slot) * kChunkSlots);
    }
  }

  template <typename... Args>
  T* New(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Slot));
      free_ = slot->next_free;
    } else {
      if (carved_ == kChunkSlots) {
        chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
        ASAN_POISON_MEMORY_REGION(chunks_.back().get(),
                                  sizeof(Slot) * kChunkSlots);
        carved_ = 0;
      }
      slot = &chunks_.back()[carved_++];
      ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Slot));
    }
    return ::new (static_cast<void*>(slot->storage))
        T(std::forward<Args>(args)...);
  }

  void Delete(T* object) {
    Slot* slot = reinterpret_cast<Slot*>(object);
    slot->next_free = free_;
    free_ = slot;
    ASAN_POISON_MEMORY_REGION(slot, sizeof(Slot));
  }

 private:
  union Slot {
    Slot* next_free;
    alignas(T) unsigned char storage[sizeof(T)];
  };
  static constexpr size_t kChunkSlots = 256;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  size_t carved_ = kChunkSlots;  // slots handed out of chunks_.back()
  Slot* free_ = nullptr;
};

/// The digram index: open addressing with linear probing over the two
/// symbol ids of each digram, and backward-shift deletion (no tombstones,
/// so probe runs stay as short as the load allows). A key compares both
/// ids; their 64-bit mix only picks the home slot, so two digrams whose
/// mixes collide stay distinct. Allocates on the first insert.
class DigramIndex {
 public:
  struct Entry {
    uint64_t first;
    uint64_t second;
    Sym* sym;  // null: an empty slot
  };

  /// The entry of digram (a, b), or null.
  Entry* Find(uint64_t a, uint64_t b) {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = Home(a, b);; i = (i + 1) & mask_) {
      Entry& e = entries_[i];
      if (e.sym == nullptr) {
        return nullptr;
      }
      if (e.first == a && e.second == b) {
        return &e;
      }
    }
  }

  /// The entry of digram (a, b), inserted pointing at `sym` when absent;
  /// `*inserted` says which.
  Entry* FindOrInsert(uint64_t a, uint64_t b, Sym* sym, bool* inserted) {
    if (2 * (size_ + 1) > entries_.size()) {
      Grow();
    }
    for (size_t i = Home(a, b);; i = (i + 1) & mask_) {
      Entry& e = entries_[i];
      if (e.sym == nullptr) {
        e = Entry{a, b, sym};
        ++size_;
        *inserted = true;
        return &e;
      }
      if (e.first == a && e.second == b) {
        *inserted = false;
        return &e;
      }
    }
  }

  /// Removes `e`, shifting the rest of its probe run back over the hole.
  void Erase(Entry* e) {
    size_t hole = static_cast<size_t>(e - entries_.data());
    for (size_t i = (hole + 1) & mask_;; i = (i + 1) & mask_) {
      Entry& next = entries_[i];
      if (next.sym == nullptr) {
        break;
      }
      // `next` may fill the hole only when the hole lies on its probe path,
      // i.e. its home is no closer to it than the hole is.
      const size_t home = Home(next.first, next.second);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        entries_[hole] = next;
        hole = i;
      }
    }
    entries_[hole].sym = nullptr;
    --size_;
  }

 private:
  static constexpr size_t kMinCapacity = 64;

  size_t Home(uint64_t a, uint64_t b) const {
    uint64_t h = a * 0x9e3779b97f4a7c15ULL;
    h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    // Fibonacci hashing: the top bits of the product depend on every bit
    // of the mix.
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    const size_t capacity = old.empty() ? kMinCapacity : 2 * old.size();
    entries_.assign(capacity, Entry{0, 0, nullptr});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Entry& e : old) {
      if (e.sym == nullptr) {
        continue;
      }
      size_t i = Home(e.first, e.second);
      while (entries_[i].sym != nullptr) {
        i = (i + 1) & mask_;
      }
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;  // power-of-two capacity, at most half full
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

class Inducer {
 public:
  // The root rule lives inside the inducer (next_serial_ is declared, and
  // so initialized, before it); every other rule and every symbol comes
  // from the pools, which allocate on first use.
  Inducer() : root_(next_serial_++) { all_rules_.push_back(&root_); }

  Inducer(const Inducer&) = delete;
  Inducer& operator=(const Inducer&) = delete;

  void AppendTerminal(int32_t token) {
    Sym* s = syms_.New();
    s->id = (static_cast<uint64_t>(token) << 1) | 1u;
    InsertAfter(root_.last(), s);
    Check(s->prev);
  }

  /// Extracts the final grammar (rule table + occurrence lists).
  Grammar Extract(size_t num_tokens);

 private:
  // --- identity & digram index -------------------------------------------

  static uint64_t IdOf(const Sym* s) {
    GVA_DCHECK(!s->IsGuard());
    return s->id;
  }

  void DeleteDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    DigramIndex::Entry* e = digrams_.Find(IdOf(s), IdOf(s->next));
    if (e == nullptr || e->sym != s) {
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
      e->sym = twin;
    } else {
      digrams_.Erase(e);
    }
  }

  void IndexDigram(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return;
    }
    bool inserted = false;
    digrams_.FindOrInsert(IdOf(s), IdOf(s->next), s, &inserted)->sym = s;
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
    syms_.Delete(s);
  }

  // --- rules ---------------------------------------------------------------

  Rule* NewRule() {
    Rule* r = rules_.New(next_serial_++);
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
    Sym* s = syms_.New();
    s->id = r->serial << 1;
    s->rule = r;
    Reuse(r);
    return s;
  }

  Sym* CopyOf(const Sym* s) {
    if (s->IsNonTerminal()) {
      return NewNonTerminal(s->rule);
    }
    Sym* c = syms_.New();
    c->id = s->id;
    return c;
  }

  // --- the Sequitur invariants --------------------------------------------

  /// Checks the digram starting at `s` against the index. Returns true when
  /// the digram was already present (and was dealt with by Match).
  bool Check(Sym* s) {
    if (s->IsGuard() || s->next->IsGuard()) {
      return false;
    }
    bool inserted = false;
    Sym* found =
        digrams_.FindOrInsert(IdOf(s), IdOf(s->next), s, &inserted)->sym;
    if (inserted) {
      return false;
    }
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
    syms_.Delete(s);

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
    rules_.Delete(q);
  }

  Pool<Sym> syms_;
  Pool<Rule> rules_;
  DigramIndex digrams_;
  uint64_t next_serial_ = 0;
  Rule root_;
  std::vector<Rule*> all_rules_;  // the live rules, root_ at slot 0
};

Grammar Inducer::Extract(size_t num_tokens) {
  // Assign dense ids by first encounter in a pre-order walk from R0;
  // ids[rule->slot] is the rule's id, -1 until it is reached.
  std::vector<int32_t> ids(all_rules_.size(), -1);
  std::vector<Rule*> ordered;
  ids[root_.slot] = 0;
  ordered.push_back(&root_);
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (Sym* s = ordered[i]->first(); !s->IsGuard(); s = s->next) {
      if (s->IsNonTerminal() && ids[s->rule->slot] < 0) {
        ids[s->rule->slot] = static_cast<int32_t>(ordered.size());
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
        out.rhs.push_back(GrammarSymbol{true, s->terminal()});
      } else {
        out.rhs.push_back(GrammarSymbol{false, ids[s->rule->slot]});
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
