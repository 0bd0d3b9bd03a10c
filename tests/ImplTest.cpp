//===- tests/ImplTest.cpp - Concrete linked structure tests ----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "impl/Accumulator.h"
#include "impl/ArrayList.h"
#include "impl/AssociationList.h"
#include "impl/HashSet.h"
#include "impl/HashTable.h"
#include "impl/ListSet.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

using namespace semcomm;

TEST(ListSetTest, BasicSemantics) {
  ListSet S;
  EXPECT_TRUE(S.add(Value::obj(1)));
  EXPECT_FALSE(S.add(Value::obj(1)));
  EXPECT_TRUE(S.contains(Value::obj(1)));
  EXPECT_EQ(S.size(), 1);
  EXPECT_TRUE(S.remove(Value::obj(1)));
  EXPECT_FALSE(S.remove(Value::obj(1)));
  EXPECT_TRUE(S.repOk());
}

TEST(ListSetTest, Figure41ConcreteStatesDivergeAbstractStatesAgree) {
  // The paper's running motivation (§1.1, Fig. 4-1): different insertion
  // orders produce different linked lists but the same abstract set.
  ListSet A, B;
  A.add(Value::obj(1));
  A.add(Value::obj(2));
  B.add(Value::obj(2));
  B.add(Value::obj(1));
  EXPECT_NE(A.elementsInListOrder(), B.elementsInListOrder());
  EXPECT_EQ(A.abstraction(), B.abstraction());
}

TEST(HashSetTest, ResizePreservesAbstraction) {
  HashSet S;
  size_t InitialCapacity = S.capacity();
  for (int I = 1; I <= 64; ++I)
    EXPECT_TRUE(S.add(Value::obj(I)));
  EXPECT_GT(S.capacity(), InitialCapacity);
  EXPECT_TRUE(S.repOk());
  EXPECT_EQ(S.size(), 64);
  for (int I = 1; I <= 64; ++I)
    EXPECT_TRUE(S.contains(Value::obj(I)));
  EXPECT_EQ(S.abstraction().size(), 64);
}

TEST(HashTableTest, PutGetRemove) {
  HashTable T;
  EXPECT_TRUE(T.put(Value::obj(1), Value::obj(10)).isNull());
  EXPECT_EQ(T.put(Value::obj(1), Value::obj(11)), Value::obj(10));
  EXPECT_EQ(T.get(Value::obj(1)), Value::obj(11));
  EXPECT_TRUE(T.containsKey(Value::obj(1)));
  EXPECT_FALSE(T.containsKey(Value::obj(2)));
  EXPECT_EQ(T.remove(Value::obj(1)), Value::obj(11));
  EXPECT_TRUE(T.remove(Value::obj(1)).isNull());
  EXPECT_TRUE(T.repOk());
}

TEST(HashTableTest, ManyKeysWithResize) {
  HashTable T;
  for (int I = 1; I <= 100; ++I)
    T.put(Value::obj(I), Value::obj(1000 + I));
  EXPECT_TRUE(T.repOk());
  EXPECT_EQ(T.size(), 100);
  for (int I = 1; I <= 100; ++I)
    EXPECT_EQ(T.get(Value::obj(I)), Value::obj(1000 + I));
}

TEST(AssociationListTest, ShadowingFreeRebinding) {
  AssociationList L;
  L.put(Value::obj(1), Value::obj(5));
  L.put(Value::obj(2), Value::obj(6));
  EXPECT_EQ(L.put(Value::obj(1), Value::obj(7)), Value::obj(5));
  EXPECT_EQ(L.size(), 2);
  EXPECT_EQ(L.get(Value::obj(1)), Value::obj(7));
  EXPECT_TRUE(L.repOk());
}

TEST(ArrayListTest, ShiftingSemantics) {
  ArrayList A;
  A.addAt(0, Value::obj(1)); // [1]
  A.addAt(1, Value::obj(2)); // [1 2]
  A.addAt(0, Value::obj(3)); // [3 1 2]
  EXPECT_EQ(A.size(), 3);
  EXPECT_EQ(A.get(0), Value::obj(3));
  EXPECT_EQ(A.get(1), Value::obj(1));
  EXPECT_EQ(A.indexOf(Value::obj(2)), 2);
  EXPECT_EQ(A.removeAt(1), Value::obj(1)); // [3 2]
  EXPECT_EQ(A.get(1), Value::obj(2));
  EXPECT_EQ(A.set(0, Value::obj(9)), Value::obj(3)); // [9 2]
  EXPECT_EQ(A.lastIndexOf(Value::obj(9)), 0);
  EXPECT_TRUE(A.repOk());
}

TEST(CloneTest, DeepCopiesAreIndependent) {
  for (const StructureFactory &Factory : allStructureFactories()) {
    if (Factory.Fam->Kind == StateKind::Counter)
      continue;
    std::unique_ptr<ConcreteStructure> A = Factory.Make();
    // Populate through the generic interface.
    if (Factory.Fam->Kind == StateKind::Set)
      A->invoke("add", {Value::obj(1)});
    else if (Factory.Fam->Kind == StateKind::Map)
      A->invoke("put", {Value::obj(1), Value::obj(2)});
    else
      A->invoke("add_at", {Value::integer(0), Value::obj(1)});
    std::unique_ptr<ConcreteStructure> B = A->clone();
    EXPECT_EQ(A->abstraction(), B->abstraction()) << Factory.Name;
    // Mutating the clone must not affect the original.
    if (Factory.Fam->Kind == StateKind::Set)
      B->invoke("remove", {Value::obj(1)});
    else if (Factory.Fam->Kind == StateKind::Map)
      B->invoke("remove", {Value::obj(1)});
    else
      B->invoke("remove_at", {Value::integer(0)});
    EXPECT_NE(A->abstraction(), B->abstraction()) << Factory.Name;
    EXPECT_TRUE(A->repOk() && B->repOk()) << Factory.Name;
  }
}

// Property sweep: each structure agrees with the matching std:: container
// under long random operation sequences.
class StructureRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StructureRandomTest, SetAgreesWithStdSet) {
  auto [Seed, WhichImpl] = GetParam();
  std::mt19937 Rng(Seed);
  std::unique_ptr<ConcreteStructure> S;
  if (WhichImpl == 0)
    S = std::make_unique<ListSet>();
  else
    S = std::make_unique<HashSet>();
  std::set<Value> Oracle;

  for (int Step = 0; Step < 2000; ++Step) {
    Value V = Value::obj(1 + static_cast<int>(Rng() % 12));
    switch (Rng() % 4) {
    case 0:
      ASSERT_EQ(S->invoke("add", {V}).asBool(), Oracle.insert(V).second);
      break;
    case 1:
      ASSERT_EQ(S->invoke("remove", {V}).asBool(), Oracle.erase(V) > 0);
      break;
    case 2:
      ASSERT_EQ(S->invoke("contains", {V}).asBool(), Oracle.count(V) > 0);
      break;
    case 3:
      ASSERT_EQ(S->invoke("size", {}).asInt(),
                static_cast<int64_t>(Oracle.size()));
      break;
    }
    ASSERT_TRUE(S->repOk());
  }
}

TEST_P(StructureRandomTest, MapAgreesWithStdMap) {
  auto [Seed, WhichImpl] = GetParam();
  std::mt19937 Rng(Seed + 1000);
  std::unique_ptr<ConcreteStructure> M;
  if (WhichImpl == 0)
    M = std::make_unique<AssociationList>();
  else
    M = std::make_unique<HashTable>();
  std::map<Value, Value> Oracle;

  auto OracleGet = [&Oracle](const Value &K) {
    auto It = Oracle.find(K);
    return It == Oracle.end() ? Value::null() : It->second;
  };

  for (int Step = 0; Step < 2000; ++Step) {
    Value K = Value::obj(1 + static_cast<int>(Rng() % 10));
    Value V = Value::obj(100 + static_cast<int>(Rng() % 5));
    switch (Rng() % 5) {
    case 0: {
      Value Old = OracleGet(K);
      Oracle[K] = V;
      ASSERT_EQ(M->invoke("put", {K, V}), Old);
      break;
    }
    case 1: {
      Value Old = OracleGet(K);
      Oracle.erase(K);
      ASSERT_EQ(M->invoke("remove", {K}), Old);
      break;
    }
    case 2:
      ASSERT_EQ(M->invoke("get", {K}), OracleGet(K));
      break;
    case 3:
      ASSERT_EQ(M->invoke("containsKey", {K}).asBool(), Oracle.count(K) > 0);
      break;
    case 4:
      ASSERT_EQ(M->invoke("size", {}).asInt(),
                static_cast<int64_t>(Oracle.size()));
      break;
    }
    ASSERT_TRUE(M->repOk());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, StructureRandomTest,
                         ::testing::Combine(::testing::Values(1, 7, 42, 99),
                                            ::testing::Values(0, 1)));

// ArrayList has a single implementation, so its sweep is over seeds only.
class ArrayListRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ArrayListRandomTest, AgreesWithStdVector) {
  std::mt19937 Rng(GetParam() + 2000);
  ArrayList A;
  std::vector<Value> Oracle;

  for (int Step = 0; Step < 2000; ++Step) {
    Value V = Value::obj(1 + static_cast<int>(Rng() % 6));
    int64_t N = static_cast<int64_t>(Oracle.size());
    switch (Rng() % 6) {
    case 0: {
      int64_t I = static_cast<int64_t>(Rng() % (N + 1));
      A.addAt(I, V);
      Oracle.insert(Oracle.begin() + I, V);
      break;
    }
    case 1: {
      if (N == 0)
        break;
      int64_t I = static_cast<int64_t>(Rng() % N);
      ASSERT_EQ(A.removeAt(I), Oracle[I]);
      Oracle.erase(Oracle.begin() + I);
      break;
    }
    case 2: {
      if (N == 0)
        break;
      int64_t I = static_cast<int64_t>(Rng() % N);
      Value Old = Oracle[I];
      Oracle[I] = V;
      ASSERT_EQ(A.set(I, V), Old);
      break;
    }
    case 3: {
      if (N == 0)
        break;
      int64_t I = static_cast<int64_t>(Rng() % N);
      ASSERT_EQ(A.get(I), Oracle[I]);
      break;
    }
    case 4: {
      auto It = std::find(Oracle.begin(), Oracle.end(), V);
      int64_t Expected =
          It == Oracle.end() ? -1 : It - Oracle.begin();
      ASSERT_EQ(A.indexOf(V), Expected);
      break;
    }
    case 5:
      ASSERT_EQ(A.size(), static_cast<int64_t>(Oracle.size()));
      break;
    }
    ASSERT_TRUE(A.repOk());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, ArrayListRandomTest,
                         ::testing::Values(1, 7, 42, 99));
