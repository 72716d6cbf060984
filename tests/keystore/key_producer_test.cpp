// KeyProducer plumbing: a QkdLinkSession as a single-stream producer, sink
// attachment/mirroring, and the LinkKeyService as an N-stream producer —
// everything a consumer needs without ever touching BatchResult.
#include "src/keystore/key_producer.hpp"

#include <gtest/gtest.h>

#include "src/keystore/key_pool.hpp"
#include "src/network/key_service.hpp"
#include "src/qkd/engine.hpp"

namespace qkd::keystore {
namespace {

/// Small frames so a test batch is cheap but still distills (~100 bits).
qkd::proto::QkdLinkConfig small_config() {
  qkd::proto::QkdLinkConfig config;
  config.frame_slots = 1 << 19;
  return config;
}

TEST(KeyProducer, SessionDeliversIntoItsOwnSupplyByDefault) {
  qkd::proto::QkdLinkSession session(small_config(), 11);
  KeyProducer& producer = session;
  ASSERT_EQ(producer.supply_count(), 1u);
  session.produce_batches(3);
  EXPECT_GT(session.totals().accepted_batches, 0u);
  EXPECT_EQ(producer.supply(0).available_bits(),
            session.totals().distilled_bits);
  EXPECT_THROW(producer.supply(1), std::out_of_range);
}

TEST(KeyProducer, AdvanceMatchesProducedBatchesBitForBit) {
  // Time-based production and count-based production run the same
  // pipeline: equal simulated time => identical supply content.
  qkd::proto::QkdLinkSession by_time(small_config(), 12);
  qkd::proto::QkdLinkSession by_count(small_config(), 12);
  const double frame_s =
      by_time.link().frame_duration_s(by_time.config().frame_slots);
  by_time.advance(3.4 * frame_s);  // 3 whole frames, 0.4 owed
  by_count.produce_batches(3);
  EXPECT_EQ(by_time.totals().batches, 3u);
  EXPECT_EQ(by_time.supply(0).take_all().bits,
            by_count.supply(0).take_all().bits);
}

TEST(KeyProducer, AttachedSinksMirrorTheStreamAndIdleTheOwnSupply) {
  qkd::proto::QkdLinkSession session(small_config(), 13);
  KeyPool alice("alice-gw"), bob("bob-gw");
  session.attach_sink(0, alice);
  session.attach_sink(0, bob);
  session.produce_batches(3);
  ASSERT_GT(session.totals().distilled_bits, 0u);
  // Both sinks saw the identical deposit stream; the producer-owned supply
  // stayed idle (key is delivered, not archived).
  EXPECT_EQ(alice.stats().bits_deposited, session.totals().distilled_bits);
  EXPECT_EQ(alice.take_all().bits, bob.take_all().bits);
  EXPECT_EQ(session.supply(0).available_bits(), 0u);
}

TEST(KeyProducer, SessionAttackSuppressesProduction) {
  qkd::proto::QkdLinkSession session(small_config(), 14);
  session.set_attack(
      std::make_unique<qkd::optics::InterceptResendAttack>(1.0));
  session.produce_batches(2);
  EXPECT_EQ(session.supply(0).available_bits(), 0u);
  EXPECT_GT(session.totals().aborted_qber(), 0u);
  session.set_attack(nullptr);
  session.produce_batches(2);
  EXPECT_GT(session.supply(0).available_bits(), 0u);
}

TEST(KeyProducer, LinkKeyServiceExposesOneSupplyPerLink) {
  qkd::network::Topology topo = qkd::network::Topology::star(3);
  qkd::network::LinkKeyService::Config config;
  config.proto = small_config();
  config.seed = 7;
  qkd::network::LinkKeyService service(topo, config);
  KeyProducer& producer = service;
  ASSERT_EQ(producer.supply_count(), topo.link_count());
  service.run_batches(2);
  for (std::size_t id = 0; id < producer.supply_count(); ++id)
    EXPECT_GT(producer.supply(id).available_bits(), 0u) << "link " << id;
}

}  // namespace
}  // namespace qkd::keystore
