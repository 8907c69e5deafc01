// R4 positive: a tentative frame that is never resolved in-function.
struct Plan {
  int commit_tentative(int t, int q);
  void rollback(int token);
};

int leak_frame(Plan& plan, int t, int q) {
  int token = plan.commit_tentative(t, q);  // LINT-EXPECT: R4
  return token == 0 ? 1 : 0;
}
