/**
 * @file
 * Vendored single-header GoogleTest-compatible shim.
 *
 * A system GoogleTest is preferred when installed; this header
 * exists so `cmake && ctest` works on a machine with no gtest
 * package. It implements exactly the subset of
 * the gtest API this repository's tests use:
 *
 *   TEST, TEST_F, TEST_P, INSTANTIATE_TEST_SUITE_P,
 *   ::testing::Test, ::testing::TestWithParam, ::testing::TestParamInfo,
 *   ::testing::Values / Range / Combine,
 *   EXPECT_/ASSERT_ {TRUE, FALSE, EQ, NE, LT, LE, GT, GE},
 *   EXPECT_STREQ, EXPECT_DOUBLE_EQ, EXPECT_NEAR,
 *   EXPECT_NO_FATAL_FAILURE, SUCCEED, FAIL, ADD_FAILURE,
 *   InitGoogleTest, RUN_ALL_TESTS, --gtest_filter, --gtest_list_tests.
 *
 * Fatal assertions abort the running test by throwing
 * internal::FatalFailure from the end of the assertion statement; the
 * runner catches it, runs TearDown and moves on — behaviourally
 * equivalent to gtest's early return for these tests.
 */

#ifndef DCRA_SMT_TESTS_SUPPORT_GTEST_SHIM_H
#define DCRA_SMT_TESTS_SUPPORT_GTEST_SHIM_H

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace testing {

class Test;

namespace internal {

/** Thrown by fatal (ASSERT_*) failures to unwind the test body. */
struct FatalFailure {};

/** One runnable test case. */
struct TestEntry
{
    std::string suite;
    std::string name;
    std::function<Test *()> factory;

    std::string fullName() const { return suite + "." + name; }
};

inline std::vector<TestEntry> &
registry()
{
    static std::vector<TestEntry> tests;
    return tests;
}

inline bool &
currentTestFailed()
{
    static bool failed = false;
    return failed;
}

inline std::string &
filterPattern()
{
    static std::string pattern = "*";
    return pattern;
}

inline bool
addTest(std::string suite, std::string name,
        std::function<Test *()> factory)
{
    registry().push_back({std::move(suite), std::move(name),
                          std::move(factory)});
    return true;
}

/** Glob match supporting '*' and '?', enough for --gtest_filter. */
inline bool
globMatch(const char *pat, const char *str)
{
    if (*pat == '\0')
        return *str == '\0';
    if (*pat == '*') {
        for (const char *s = str;; ++s) {
            if (globMatch(pat + 1, s))
                return true;
            if (*s == '\0')
                return false;
        }
    }
    if (*str == '\0')
        return false;
    if (*pat != '?' && *pat != *str)
        return false;
    return globMatch(pat + 1, str + 1);
}

/** gtest filter: ':'-separated positives, then '-' plus negatives. */
inline bool
filterAccepts(const std::string &full)
{
    const std::string &pattern = filterPattern();
    std::string positives = pattern;
    std::string negatives;
    const std::size_t dash = pattern.find('-');
    if (dash != std::string::npos) {
        positives = pattern.substr(0, dash);
        negatives = pattern.substr(dash + 1);
    }
    if (positives.empty())
        positives = "*";
    auto anyMatch = [&full](const std::string &lists) {
        std::size_t start = 0;
        while (start <= lists.size()) {
            std::size_t colon = lists.find(':', start);
            if (colon == std::string::npos)
                colon = lists.size();
            const std::string one = lists.substr(start, colon - start);
            if (!one.empty() && globMatch(one.c_str(), full.c_str()))
                return true;
            start = colon + 1;
        }
        return false;
    };
    if (!anyMatch(positives))
        return false;
    return negatives.empty() || !anyMatch(negatives);
}

/** Print a value; falls back for types without operator<<. */
template <typename T, typename = void>
struct IsStreamable : std::false_type {};
template <typename T>
struct IsStreamable<T, std::void_t<decltype(std::declval<std::ostream &>()
                                            << std::declval<const T &>())>>
    : std::true_type {};

template <typename T>
void
printTo(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        os << (v ? "true" : "false");
    } else if constexpr (std::is_enum_v<T>) {
        os << static_cast<long long>(v);
    } else if constexpr (IsStreamable<T>::value) {
        os << v;
    } else {
        os << "<" << sizeof(T) << "-byte object>";
    }
}

/**
 * Failure sink: accumulates the streamed message, reports in the
 * destructor, and (for ASSERT_*) throws FatalFailure to abort the
 * test body at the end of the assertion statement.
 */
class FailureRecorder
{
  public:
    FailureRecorder(const char *file, int line, bool fatal)
        : isFatal(fatal)
    {
        ss << file << ":" << line << ": failure\n";
    }

    template <typename T>
    FailureRecorder &
    operator<<(const T &v)
    {
        printTo(ss, v);
        return *this;
    }

    ~FailureRecorder() noexcept(false)
    {
        currentTestFailed() = true;
        std::fprintf(stderr, "%s\n", ss.str().c_str());
        if (isFatal && std::uncaught_exceptions() == 0)
            throw FatalFailure{};
    }

  private:
    bool isFatal;
    std::ostringstream ss;
};

/** Message sink for SUCCEED(): swallows everything. */
struct NullStream
{
    template <typename T>
    NullStream &
    operator<<(const T &)
    {
        return *this;
    }
};

/**
 * Result of a binary comparison: carries pre-rendered operand text so
 * the failure message never re-evaluates (or copies) the expressions.
 */
struct BinRes
{
    bool ok;
    std::string lv;
    std::string rv;
    explicit operator bool() const { return ok; }
};

template <typename A, typename B>
BinRes
makeBinRes(bool ok, const A &a, const B &b)
{
    if (ok)
        return {true, {}, {}};
    std::ostringstream la, lb;
    printTo(la, a);
    printTo(lb, b);
    return {false, la.str(), lb.str()};
}

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-compare"

template <typename A, typename B>
BinRes cmpEQ(const A &a, const B &b) { return makeBinRes(a == b, a, b); }
template <typename A, typename B>
BinRes cmpNE(const A &a, const B &b) { return makeBinRes(a != b, a, b); }
template <typename A, typename B>
BinRes cmpLT(const A &a, const B &b) { return makeBinRes(a < b, a, b); }
template <typename A, typename B>
BinRes cmpLE(const A &a, const B &b) { return makeBinRes(a <= b, a, b); }
template <typename A, typename B>
BinRes cmpGT(const A &a, const B &b) { return makeBinRes(a > b, a, b); }
template <typename A, typename B>
BinRes cmpGE(const A &a, const B &b) { return makeBinRes(a >= b, a, b); }

#pragma GCC diagnostic pop

inline BinRes
cmpSTREQ(const char *a, const char *b)
{
    const bool ok = (a == nullptr || b == nullptr)
        ? a == b
        : std::strcmp(a, b) == 0;
    return {ok, a ? a : "(null)", b ? b : "(null)"};
}

/** gtest semantics: equal within 4 units in the last place. */
inline BinRes
cmpDOUBLE_EQ(double a, double b)
{
    if (a == b)
        return {true, {}, {}};
    const double diff = std::fabs(a - b);
    const double scale = std::fmax(std::fabs(a), std::fabs(b));
    return makeBinRes(
        diff <= 4 * std::numeric_limits<double>::epsilon() * scale,
        a, b);
}

/** Run f(); true iff no fatal assertion fired inside it. */
template <typename F>
bool
noFatalFailure(F &&f)
{
    try {
        f();
        return true;
    } catch (const FatalFailure &) {
        return false;
    }
}

inline bool
cmpNEAR(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol;
}

} // namespace internal

/** Base class for all tests; fixtures override SetUp/TearDown. */
class Test
{
  public:
    virtual ~Test() = default;
    virtual void TestBody() = 0;
    virtual void SetUp() {}
    virtual void TearDown() {}
};

/** Metadata handed to INSTANTIATE_TEST_SUITE_P name generators. */
template <typename T>
struct TestParamInfo
{
    T param;
    std::size_t index;
};

/** Base class for value-parameterised fixtures. */
template <typename T>
class TestWithParam : public Test
{
  public:
    using ParamType = T;

    static const T &
    GetParam()
    {
        return *currentParamSlot();
    }

    /** Runner hook: point GetParam at the instantiation's value. */
    static void setParam(const T *p) { currentParamSlot() = p; }

  private:
    static const T *&
    currentParamSlot()
    {
        static const T *current = nullptr;
        return current;
    }
};

namespace internal {

/** Per-fixture list of TEST_P bodies awaiting instantiation. */
template <typename Fixture>
struct ParamRegistry
{
    struct Entry
    {
        const char *name;
        Test *(*factory)();
    };

    static std::vector<Entry> &
    entries()
    {
        static std::vector<Entry> list;
        return list;
    }

    static bool
    add(const char *name, Test *(*factory)())
    {
        entries().push_back({name, factory});
        return true;
    }
};

template <typename Fixture, typename Gen, typename NameGen>
bool
instantiate(const char *prefix, const char *suite, const Gen &gen,
            NameGen nameGen)
{
    using P = typename Fixture::ParamType;
    if (ParamRegistry<Fixture>::entries().empty()) {
        // Real gtest defers instantiation, so TEST_P after
        // INSTANTIATE works there; this shim resolves at static-init
        // order. Fail loudly rather than silently running 0 tests.
        std::fprintf(stderr,
                     "gtest shim: INSTANTIATE_TEST_SUITE_P(%s, %s) "
                     "found no TEST_P bodies; with the shim, "
                     "INSTANTIATE must come after every TEST_P\n",
                     prefix, suite);
        std::abort();
    }
    auto params =
        std::make_shared<std::vector<P>>(gen.begin(), gen.end());
    for (std::size_t i = 0; i < params->size(); ++i) {
        const TestParamInfo<P> info{(*params)[i], i};
        const std::string pname = nameGen(info);
        for (const auto &entry : ParamRegistry<Fixture>::entries()) {
            addTest(std::string(prefix) + "/" + suite,
                    std::string(entry.name) + "/" + pname,
                    [params, i, factory = entry.factory]() {
                        Fixture::setParam(&(*params)[i]);
                        return factory();
                    });
        }
    }
    return true;
}

template <typename Fixture, typename Gen>
bool
instantiate(const char *prefix, const char *suite, const Gen &gen)
{
    using P = typename Fixture::ParamType;
    return instantiate<Fixture>(
        prefix, suite, gen, [](const TestParamInfo<P> &info) {
            return std::to_string(info.index);
        });
}

inline int
runAll()
{
    int ran = 0;
    std::vector<std::string> failedNames;
    for (const TestEntry &t : registry()) {
        const std::string full = t.fullName();
        if (!filterAccepts(full))
            continue;
        ++ran;
        currentTestFailed() = false;
        std::printf("[ RUN      ] %s\n", full.c_str());
        try {
            std::unique_ptr<Test> obj(t.factory());
            try {
                obj->SetUp();
                obj->TestBody();
            } catch (const FatalFailure &) {
                // Already recorded by the FailureRecorder.
            }
            obj->TearDown();
        } catch (const FatalFailure &) {
        } catch (const std::exception &e) {
            currentTestFailed() = true;
            std::fprintf(stderr, "uncaught exception: %s\n", e.what());
        }
        if (currentTestFailed()) {
            failedNames.push_back(full);
            std::printf("[  FAILED  ] %s\n", full.c_str());
        } else {
            std::printf("[       OK ] %s\n", full.c_str());
        }
    }
    std::printf("[==========] %d tests ran.\n", ran);
    if (!failedNames.empty()) {
        std::printf("[  FAILED  ] %zu tests:\n", failedNames.size());
        for (const auto &n : failedNames)
            std::printf("[  FAILED  ] %s\n", n.c_str());
        return 1;
    }
    std::printf("[  PASSED  ] %d tests.\n", ran);
    return 0;
}

inline void
listTests()
{
    std::string lastSuite;
    for (const TestEntry &t : registry()) {
        if (t.suite != lastSuite) {
            std::printf("%s.\n", t.suite.c_str());
            lastSuite = t.suite;
        }
        std::printf("  %s\n", t.name.c_str());
    }
}

inline bool &
listOnlyFlag()
{
    static bool flag = false;
    return flag;
}

} // namespace internal

/** Parameter generators (subset of gtest's). */
template <typename... Ts>
std::vector<std::common_type_t<Ts...>>
Values(Ts... values)
{
    using T = std::common_type_t<Ts...>;
    return {static_cast<T>(values)...};
}

inline std::vector<int>
Range(int begin, int end, int step = 1)
{
    std::vector<int> out;
    for (int v = begin; v < end; v += step)
        out.push_back(v);
    return out;
}

template <typename A, typename B>
std::vector<std::tuple<A, B>>
Combine(const std::vector<A> &as, const std::vector<B> &bs)
{
    std::vector<std::tuple<A, B>> out;
    for (const A &a : as)
        for (const B &b : bs)
            out.emplace_back(a, b);
    return out;
}

template <typename A, typename B, typename C>
std::vector<std::tuple<A, B, C>>
Combine(const std::vector<A> &as, const std::vector<B> &bs,
        const std::vector<C> &cs)
{
    std::vector<std::tuple<A, B, C>> out;
    for (const A &a : as)
        for (const B &b : bs)
            for (const C &c : cs)
                out.emplace_back(a, b, c);
    return out;
}

inline void
InitGoogleTest(int *argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--gtest_filter=", 0) == 0)
            internal::filterPattern() = arg.substr(15);
        else if (arg == "--gtest_list_tests")
            internal::listOnlyFlag() = true;
        else
            argv[out++] = argv[i];
    }
    *argc = out;
}

} // namespace testing

#define RUN_ALL_TESTS()                                               \
    (::testing::internal::listOnlyFlag()                              \
         ? (::testing::internal::listTests(), 0)                      \
         : ::testing::internal::runAll())

// ---------------------------------------------------------------------
// Test definition macros
// ---------------------------------------------------------------------

#define GTEST_SHIM_CLASS_(suite, name) suite##_##name##_Test

#define GTEST_SHIM_TEST_(suite, name, parent)                         \
    class GTEST_SHIM_CLASS_(suite, name) : public parent              \
    {                                                                 \
      public:                                                         \
        void TestBody() override;                                     \
                                                                      \
      private:                                                        \
        static const bool registered_;                                \
    };                                                                \
    const bool GTEST_SHIM_CLASS_(suite, name)::registered_ =          \
        ::testing::internal::addTest(#suite, #name, []() {            \
            return static_cast<::testing::Test *>(                    \
                new GTEST_SHIM_CLASS_(suite, name));                  \
        });                                                           \
    void GTEST_SHIM_CLASS_(suite, name)::TestBody()

#define TEST(suite, name) GTEST_SHIM_TEST_(suite, name, ::testing::Test)
#define TEST_F(fixture, name) GTEST_SHIM_TEST_(fixture, name, fixture)

#define TEST_P(fixture, name)                                         \
    class GTEST_SHIM_CLASS_(fixture, name) : public fixture           \
    {                                                                 \
      public:                                                         \
        void TestBody() override;                                     \
        static ::testing::Test *                                      \
        create_()                                                     \
        {                                                             \
            return new GTEST_SHIM_CLASS_(fixture, name);              \
        }                                                             \
                                                                      \
      private:                                                        \
        static const bool registered_;                                \
    };                                                                \
    const bool GTEST_SHIM_CLASS_(fixture, name)::registered_ =        \
        ::testing::internal::ParamRegistry<fixture>::add(             \
            #name, &GTEST_SHIM_CLASS_(fixture, name)::create_);       \
    void GTEST_SHIM_CLASS_(fixture, name)::TestBody()

#define INSTANTIATE_TEST_SUITE_P(prefix, fixture, ...)                \
    [[maybe_unused]] static const bool                                \
        gtest_shim_inst_##prefix##_##fixture =                        \
            ::testing::internal::instantiate<fixture>(                \
                #prefix, #fixture, __VA_ARGS__)

// ---------------------------------------------------------------------
// Assertion macros
// ---------------------------------------------------------------------

#define GTEST_SHIM_FAILURE_(fatal)                                    \
    ::testing::internal::FailureRecorder(__FILE__, __LINE__, fatal)

#define GTEST_SHIM_BOOL_(expr, expected, fatal)                       \
    if (static_cast<bool>(expr) == (expected)) {                      \
    } else                                                            \
        GTEST_SHIM_FAILURE_(fatal)                                    \
            << "expected " #expr " to be "                            \
            << ((expected) ? "true" : "false") << "\n"

#define GTEST_SHIM_CMP_(cmp, opname, lhs, rhs, fatal)                 \
    if (auto gtest_shim_res = ::testing::internal::cmp(lhs, rhs)) {   \
    } else                                                            \
        GTEST_SHIM_FAILURE_(fatal)                                    \
            << "expected: " #lhs " " opname " " #rhs "\n  lhs = "     \
            << gtest_shim_res.lv << "\n  rhs = "                     \
            << gtest_shim_res.rv << "\n"

#define EXPECT_TRUE(e) GTEST_SHIM_BOOL_(e, true, false)
#define EXPECT_FALSE(e) GTEST_SHIM_BOOL_(e, false, false)
#define ASSERT_TRUE(e) GTEST_SHIM_BOOL_(e, true, true)
#define ASSERT_FALSE(e) GTEST_SHIM_BOOL_(e, false, true)

#define EXPECT_EQ(a, b) GTEST_SHIM_CMP_(cmpEQ, "==", a, b, false)
#define EXPECT_NE(a, b) GTEST_SHIM_CMP_(cmpNE, "!=", a, b, false)
#define EXPECT_LT(a, b) GTEST_SHIM_CMP_(cmpLT, "<", a, b, false)
#define EXPECT_LE(a, b) GTEST_SHIM_CMP_(cmpLE, "<=", a, b, false)
#define EXPECT_GT(a, b) GTEST_SHIM_CMP_(cmpGT, ">", a, b, false)
#define EXPECT_GE(a, b) GTEST_SHIM_CMP_(cmpGE, ">=", a, b, false)
#define ASSERT_EQ(a, b) GTEST_SHIM_CMP_(cmpEQ, "==", a, b, true)
#define ASSERT_NE(a, b) GTEST_SHIM_CMP_(cmpNE, "!=", a, b, true)
#define ASSERT_LT(a, b) GTEST_SHIM_CMP_(cmpLT, "<", a, b, true)
#define ASSERT_LE(a, b) GTEST_SHIM_CMP_(cmpLE, "<=", a, b, true)
#define ASSERT_GT(a, b) GTEST_SHIM_CMP_(cmpGT, ">", a, b, true)
#define ASSERT_GE(a, b) GTEST_SHIM_CMP_(cmpGE, ">=", a, b, true)

#define EXPECT_STREQ(a, b) GTEST_SHIM_CMP_(cmpSTREQ, "==", a, b, false)
#define ASSERT_STREQ(a, b) GTEST_SHIM_CMP_(cmpSTREQ, "==", a, b, true)
#define EXPECT_DOUBLE_EQ(a, b)                                        \
    GTEST_SHIM_CMP_(cmpDOUBLE_EQ, "~==", a, b, false)
#define ASSERT_DOUBLE_EQ(a, b)                                        \
    GTEST_SHIM_CMP_(cmpDOUBLE_EQ, "~==", a, b, true)

#define EXPECT_NEAR(a, b, tol)                                        \
    if (::testing::internal::cmpNEAR(a, b, tol)) {                    \
    } else                                                            \
        GTEST_SHIM_FAILURE_(false)                                    \
            << "expected |" #a " - " #b "| <= " #tol "\n"

#define SUCCEED() ::testing::internal::NullStream()
#define ADD_FAILURE() GTEST_SHIM_FAILURE_(false) << "failure\n"
#define FAIL() GTEST_SHIM_FAILURE_(true) << "failure\n"

#define EXPECT_NO_FATAL_FAILURE(stmt)                                 \
    if (::testing::internal::noFatalFailure([&]() { stmt; })) {       \
    } else                                                            \
        GTEST_SHIM_FAILURE_(false)                                    \
            << "fatal failure inside " #stmt "\n"

#endif // DCRA_SMT_TESTS_SUPPORT_GTEST_SHIM_H
