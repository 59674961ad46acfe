/**
 * @file
 * Per-translation-unit symbol index: the facts the interprocedural
 * pass needs, extracted once per file from the existing token stream.
 *
 * The index deliberately stays syntactic — no type resolution, no
 * overload sets. Each function definition carries the event lists the
 * graph rules consume (call sites, lock acquisitions, nondeterminism
 * sources, container iterations, arch-state writes), and each TU
 * contributes the container names and variable types it declares.
 * Cross-TU meaning (which names are unordered, which calls resolve to
 * which definitions) is assigned later by ProgramModel, so an index
 * depends on nothing but its own file.
 */

#ifndef MINJIE_ANALYSIS_INDEX_H
#define MINJIE_ANALYSIS_INDEX_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/source.h"

namespace minjie::analysis {

/** A plain or member call inside a function body. */
struct CallEvent
{
    std::string name;     ///< unqualified callee name
    std::string qualHint; ///< `A::B` qualifier chain, "" when absent
    std::string firstArg; ///< first-arg text for stdio calls ("" else)
    std::string recv;     ///< member-call receiver name ("" when not a
                          ///< single identifier)
    uint32_t line = 0;
    bool member = false;  ///< receiver-dot/arrow call (`obj.f()`)
};

/** A lock acquisition (guard construction or explicit .lock()). */
struct LockEvent
{
    std::string lockName; ///< source text of the locked object
    uint32_t line = 0;
};

/** A direct nondeterminism source (host RNG, wall clock, ...). */
struct DetEvent
{
    std::string what; ///< e.g. "rand()", "std::mt19937"
    uint32_t line = 0;
};

/** Container iteration whose order matters if the container turns out
 *  to be unordered (resolved cross-TU by ProgramModel). */
struct IterEvent
{
    std::vector<std::string> names; ///< candidate container names
    uint32_t line = 0;
};

/** A direct architectural-state store (regfile / protected CSR). */
struct WriteEvent
{
    std::string what; ///< e.g. "x[] store", "csr.mstatus store"
    uint32_t line = 0;
};

/** One function (or method) definition and everything inside it. */
struct FunctionIndex
{
    std::string qualName; ///< Namespace::Class::name as written
    std::string name;     ///< last component
    uint32_t line = 0;    ///< line of the name token
    std::vector<CallEvent> calls;
    std::vector<LockEvent> locks;
    std::vector<DetEvent> detSources;
    std::vector<IterEvent> iterUses;
    std::vector<WriteEvent> archWrites;
};

/** Everything indexed from one file. */
struct TuIndex
{
    std::string path; ///< repo-relative
    std::vector<FunctionIndex> functions; ///< in definition order
    std::vector<std::string> unorderedNames; ///< names declared std::unordered_*
    /** (variable, type) pairs from `Type name;`-shaped declarations —
     *  the receiver-type hints that narrow member-call resolution. */
    std::vector<std::pair<std::string, std::string>> varTypes;
};

/** Build the index for one lexed file. */
TuIndex buildIndex(const SourceFile &file, const LexResult &lexed);

} // namespace minjie::analysis

#endif // MINJIE_ANALYSIS_INDEX_H
